"""Every committed benchmark record backs its claim with numbers.

A ``BENCH_*.json`` at the repository root records one measured change: the
harness, the machine, the method, the claimed gain and the end-to-end and
per-layer figures behind it.  This test reads each record and
``BENCHMARK.json`` and checks that the claim names a workload and a metric
of the benchmark and that its change median beats its parent median in the
direction the benchmark says is better.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("change", "harness", "machine", "method", "claim", "end_to_end", "per_layer")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_backs_its_claim(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    record = json.loads(path.read_text())
    assert [k for k in KEYS if k not in record] == []
    claim = record["claim"]
    assert claim["workload"] in {w["name"] for w in benchmark["workloads"]}
    assert claim["metric"] in better
    parent, change = claim["parent_median"], claim["change_median"]
    assert change > parent if better[claim["metric"]] == "higher" else change < parent

"""Every committed benchmark record backs its claim with numbers.

A ``BENCH_*.json`` at the repository root records one measured change: the
harness, the machine, the method, the claimed gain and the end-to-end and
per-layer figures behind it.  This test reads each record and
``BENCHMARK.json`` and checks that the claim names a workload and a metric
of the benchmark and that its change median beats its parent median in the
direction the benchmark says is better.  The claim rule is enforced too: the
change wins at least nine of every ten pairs run, the medians differ by more
than the parent's interquartile range, and the claim's medians, IQR and wins
are the record's own figures for that workload and metric, to the rounding
the records use.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ROUNDING = 1e-4  # records give their figures to four decimals
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
    wins, pairs = map(int, claim["change_wins"].split("/"))
    assert pairs == claim["pairs"] and 10 * wins >= 9 * pairs
    assert abs(change - parent) > claim["parent_iqr"]
    figures = record["end_to_end"][claim["workload"]]["metrics"][claim["metric"]]
    assert figures["change_wins"] == claim["change_wins"]
    assert parent == pytest.approx(figures["parent"]["median"], abs=ROUNDING)
    assert change == pytest.approx(figures["change"]["median"], abs=ROUNDING)
    assert claim["parent_iqr"] == pytest.approx(figures["parent_iqr"], abs=ROUNDING)
    iqr = figures["parent"]["q3"] - figures["parent"]["q1"]
    assert claim["parent_iqr"] == pytest.approx(iqr, abs=2 * ROUNDING)

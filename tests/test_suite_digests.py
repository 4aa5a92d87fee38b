"""Every suite report at seed 0 and acceptance size, pinned by digest.

``suite_digests.json`` holds one sha256 per suite of ``report.to_json()``
without ``elapsed``, dumped with sorted keys.  A change that keeps every
answer keeps every digest.  A change that alters a report on purpose
regenerates the file with
``PYTHONPATH=src python tests/test_suite_digests.py`` and names each suite
whose digest changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from pseudospace.oracle import SUITE_NAMES, SuiteConfig, run_suite

DIGESTS = Path(__file__).resolve().parent / "suite_digests.json"
CASES = {"space-axioms": 500, "flags-paths": 500, "flags-forking": 1000, "words-confluence": 4000}
DEFAULT_CASES = 1000


def suite_digest(name: str) -> str:
    report = run_suite(SuiteConfig(name, seed=0, cases=CASES.get(name, DEFAULT_CASES))).to_json()
    del report["elapsed"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_every_suite_report_matches_its_digest():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == sorted(SUITE_NAMES)
    assert {name: suite_digest(name) for name in SUITE_NAMES} == pinned


if __name__ == "__main__":
    digests = {name: suite_digest(name) for name in SUITE_NAMES}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS}\n")

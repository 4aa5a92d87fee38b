import itertools
import json

import pytest

from pseudospace import oracle
from pseudospace import space as SP
from pseudospace.errors import UnknownSuiteError
from pseudospace.oracle import (
    SUITE_NAMES,
    SuiteConfig,
    SuiteReport,
    random_script,
    run_suite,
)
from pseudospace.space import ColoredSpace


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite(SuiteConfig("words-nonsense"))


def test_bad_bounds_rejected():
    with pytest.raises(ValueError):
        SuiteConfig("ample", cases=0)


def test_all_suites_pass_smoke():
    for name in SUITE_NAMES:
        report = run_suite(SuiteConfig(name, seed=3, cases=25))
        assert report.passed, (name, report.failures[:3])


def test_space_axioms_runs_the_amalgam_law(monkeypatch):
    monkeypatch.setattr(SP, "amalgam_isomorphic", lambda space, op1, op2: False)
    report = run_suite(SuiteConfig("space-axioms", seed=0, cases=20))
    assert sum(f["law"] == "amalgam" for f in report.failures) == report.cases_run


def test_space_axioms_checks_distance_stability(monkeypatch):
    """An insert that also joins two old vertices on adjacent levels
    shortens a distance that was there before it.  Such an edge breaks the
    invariant the distance memo rests on, so it clears that memo too."""
    apply_alpha = ColoredSpace.apply_alpha
    joined = []

    def apply_and_join(self, s, lo=SP.BOTTOM, hi=SP.TOP):
        old = self.vertices
        created = apply_alpha(self, s, lo, hi)
        for v, w in itertools.combinations(old, 2):
            if abs(self.level(v) - self.level(w)) == 1 and w not in self.neighbors(v):
                self._adj[v].add(w)
                self._adj[w].add(v)
                self._up.clear()
                self._down.clear()
                self._parts.clear()
                self._chains.clear()
                self._dist.clear()
                joined.append((v, w))
                break
        return created

    monkeypatch.setattr(ColoredSpace, "apply_alpha", apply_and_join)
    report = run_suite(SuiteConfig("space-axioms", seed=0, cases=20))
    failed = {json.dumps(f["inputs"]) for f in report.failures if f["law"] == "distance-stability"}
    assert len(joined) > 10 and len(failed) > 10


def test_flags_paths_reports_every_scaffold(monkeypatch):
    """The per-space memo of scaffold verdicts still records one failure per
    path, for both paths that share a vertex set."""
    check_scaffold = oracle._check_scaffold
    paths = []

    def counting(report, space, path, inputs, scaffolds):
        paths.append(len(path.word) > 0)
        check_scaffold(report, space, path, inputs, scaffolds)

    monkeypatch.setattr(oracle, "_check_scaffold", counting)
    monkeypatch.setattr(SP, "nice_witness", lambda space, region, exact=False: ("between-sets",))
    report = run_suite(SuiteConfig("flags-paths", seed=0, cases=10))
    assert sum(f["law"] == "scaffold-nice" for f in report.failures) == sum(paths) > 50


def test_reports_are_deterministic():
    for name in ["words-confluence", "space-axioms", "flags-forking"]:
        a = run_suite(SuiteConfig(name, seed=11, cases=20)).to_json()
        b = run_suite(SuiteConfig(name, seed=11, cases=20)).to_json()
        a.pop("elapsed")
        b.pop("elapsed")
        assert json.dumps(a) == json.dumps(b)


def test_seed_changes_cases():
    import random

    s1 = random_script(random.Random(1), 3)
    s2 = random_script(random.Random(2), 3)
    assert s1 != s2
    assert s1 == random_script(random.Random(1), 3)


def test_exhaustive_suite_ignores_cases():
    small = run_suite(SuiteConfig("words-absorption", seed=0, cases=1))
    big = run_suite(SuiteConfig("words-absorption", seed=9, cases=500))
    assert small.cases_run == big.cases_run > 1000


def test_report_shape():
    report = run_suite(SuiteConfig("ample", seed=0, cases=1))
    data = report.to_json()
    assert set(data) == {
        "suite",
        "seed",
        "cases_run",
        "pass",
        "failures",
        "notes",
        "elapsed",
    }
    assert data["pass"] is True and data["failures"] == []

import json

import pytest

from pseudospace import space as SP
from pseudospace.errors import UnknownSuiteError
from pseudospace.oracle import (
    SUITE_NAMES,
    SuiteConfig,
    SuiteReport,
    random_script,
    run_suite,
)


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

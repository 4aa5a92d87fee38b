import itertools
import json

import pytest

from pseudospace import flags as FL
from pseudospace import oracle
from pseudospace import space as SP
from pseudospace import words as W
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
    invariant the memos rest on, so it clears every memo."""
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


def test_path_word_invariance_catches_an_id_dependent_fault(monkeypatch):
    """A step of two or more levels taken for global whenever the least id of
    the old s-part lies below the new one's: the word then depends on how the
    vertices are numbered, which the copy with reversed ids shows."""
    connecting_path = FL._connecting_path

    def id_dependent(space, f, g, s):
        if s.size > 1 and min(f.levels_of(s)) < min(g.levels_of(s)):
            return None
        return connecting_path(space, f, g, s)

    monkeypatch.setattr(FL, "_connecting_path", id_dependent)
    report = run_suite(SuiteConfig("flags-paths", seed=0, cases=20))
    assert sum(f["law"] == "path-word-invariance" for f in report.failures) > 50


def test_basepoint_support_law_catches_a_wide_support(monkeypatch):
    """A ``support`` that also claims level 0 leaves the least modulus of
    many mid flags without it."""
    support = W.support
    monkeypatch.setattr(W, "support", lambda u: support(u) | {0})
    report = run_suite(SuiteConfig("flags-forking", seed=0, cases=300))
    assert sum(f["law"] == "basepoint-word-support" for f in report.failures) > 20


@pytest.mark.parametrize("law", ["indep-with-itself", "indep-symmetric"])
def test_indep_laws_catch_a_mutant(monkeypatch, law):
    """An ``indep`` that never forks fails ``indep-with-itself``; one that
    forks whenever f's ids are not below h's fails ``indep-symmetric``."""
    indep = FL.indep
    mutants = {
        "indep-with-itself": lambda space, f, g, h: True,
        "indep-symmetric": lambda space, f, g, h: indep(space, f, g, h) and f < h,
    }
    monkeypatch.setattr(FL, "indep", mutants[law])
    report = run_suite(SuiteConfig("flags-forking", seed=0, cases=100))
    assert sum(f["law"] == law for f in report.failures) > 20


@pytest.mark.parametrize("modulus, failed", [("empty", 31), ("every level", 71)])
def test_canonical_base_law_catches_a_wrong_modulus(monkeypatch, modulus, failed):
    """A ``canonical_base`` whose modulus is empty leaves out the region
    flags that differ from the basepoint inside the right stabilizer; one
    whose modulus holds every level takes in every region flag."""
    def wrong(space, f, region):
        levels = frozenset() if modulus == "empty" else frozenset(range(space.n + 1))
        return FL.FlagClass(FL.basepoint(space, f, region)[0], levels)

    monkeypatch.setattr(FL, "canonical_base", wrong)
    report = run_suite(SuiteConfig("flags-forking", seed=0, cases=100))
    law = "canonical-base-describes-basepoints"
    assert sum(f["law"] == law for f in report.failures) == failed


def test_division_law_catches_a_missing_gate(monkeypatch):
    """A ``_left_stabilizer`` that claims every level switches off the
    left-over gate of ``divides_left_bounded``, which then finds a witness
    for pairs that do not divide; ``divides-own-product`` asks only pairs
    that do, so ``divides-random-pair`` is the law that fails."""
    monkeypatch.setattr(W, "_left_stabilizer", lambda key: -1)
    report = run_suite(SuiteConfig("words-order", seed=0, cases=100))
    assert sum(f["law"] == "divides-random-pair" for f in report.failures) > 20


def test_words_strong_notes_the_reducts_it_leaves_unchecked(monkeypatch):
    """A reduct whose ``prec`` search passes the state budget is counted in a
    note, not dropped silently; at the real budget there are none."""
    assert len(run_suite(SuiteConfig("words-strong", seed=0, cases=50)).notes) == 1
    monkeypatch.setattr(W, "_PREC_STATES", 0)
    notes = run_suite(SuiteConfig("words-strong", seed=0, cases=50)).notes
    assert len(notes) == 2 and "reducts unchecked" in notes[1]


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

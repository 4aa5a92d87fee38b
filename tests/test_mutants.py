"""Named source mutants, each caught by the oracle laws that name it.

A row replaces one module attribute with ``monkeypatch``, runs one suite at
seed 0 with its case count, and gives the failures of each law that must
catch the mutant.  A module attribute is looked up at call time, so patching
the module also reaches the calls from inside it.  The counts are pinned
exactly: a law that fails less often has lost power, and a count that moves
either way means that a law's verdict or a random draw of its suite changed.
The same test first runs the unmutated suite, which must pass.
"""

import collections

import pytest

from pseudospace import flags as FL
from pseudospace import space as SP
from pseudospace import words as W
from pseudospace.oracle import SuiteConfig, run_suite

_connecting_path, _indep, _support = FL._connecting_path, FL.indep, W.support


def _id_dependent(space, f, g, lo, hi):
    """A step of two or more levels taken for global whenever the least id of
    the old part at levels lo..hi lies below the new one's: the word then
    depends on how the vertices are numbered, which the copy with reversed
    ids shows."""
    if hi > lo and min(f[lo : hi + 1]) < min(g[lo : hi + 1]):
        return None
    return _connecting_path(space, f, g, lo, hi)


def _modulus(levels):
    """A ``canonical_base`` whose modulus is ``levels(n)``: an empty one
    leaves out the region flags that differ from the basepoint inside the
    right stabilizer, and one of every level takes in every region flag."""
    def canonical_base(space, f, region):
        return FL.FlagClass(FL.basepoint(space, f, region)[0], levels(space.n))
    return canonical_base


def _first_flag(space, f, region):
    """A basepoint that ignores rank: the region's first flag."""
    g = FL.enumerate_flags(space, within=region)[0]
    return g, W.normal_form(FL.flag_path(space, f, g).word)


def _unreduced_product(u, v):
    return W.normal_form(u.concat(v))


MUTANTS = {  # name: (module, attribute, replacement, suite, cases, {law: failures})
    "amalgam-never": (SP, "amalgam_isomorphic", lambda space, op1, op2: False,
                      "space-axioms", 20, {"amalgam": 20}),
    "id-dependent-step": (FL, "_connecting_path", _id_dependent,
                          "flags-paths", 20, {"path-word-invariance": 104}),
    # leaves the least modulus of many mid flags without level 0
    "support-with-level-0": (W, "support", lambda u: _support(u) | {0},
                             "flags-forking", 300, {"basepoint-word-support": 33}),
    "indep-never-forks": (FL, "indep", lambda space, f, g, h: True,
                          "flags-forking", 100, {"indep-with-itself": 69}),
    # forks whenever f's ids are not below h's
    "indep-asymmetric": (FL, "indep", lambda space, f, g, h: _indep(space, f, g, h) and f < h,
                         "flags-forking", 100, {"indep-symmetric": 173}),
    # switches off the left-over gate of divides_left_bounded, which then
    # finds a witness for pairs that do not divide; divides-own-product asks
    # only pairs that do
    "division-without-gate": (W, "_left_stabilizer", lambda key: -1,
                              "words-order", 100, {"divides-random-pair": 48}),
    "modulus-empty": (FL, "canonical_base", _modulus(lambda n: frozenset()),
                      "flags-forking", 100, {"canonical-base-describes-basepoints": 31}),
    "modulus-every-level": (FL, "canonical_base", _modulus(lambda n: frozenset(range(n + 1))),
                            "flags-forking", 100, {"canonical-base-describes-basepoints": 71}),
    "wobbling-every-level": (W, "wobbling", lambda u, v: frozenset(range(u.n + 1)),
                             "words-absorption", 1, {"wobbling-proper": 768}),
    "right-stabilizer-empty": (W, "right_stabilizer", lambda v: frozenset(),
                               "flags-forking", 100,
                               {"canonical-base-describes-basepoints": 31,
                                "two-realizations-midflag": 67}),
    "right-stabilizer-empty-ample": (W, "right_stabilizer", lambda v: frozenset(),
                                     "ample", 1, {"ample-identity": 6}),
    "basepoint-first-flag": (FL, "_basepoint", _first_flag,
                             "flags-forking", 100, {"basepoint-least-rank": 76}),
    # a positive control for the product: the normal form of the joined keys,
    # which is not reduced.  words-order tests the product's reduction
    # before it divides it, and words-strong misses the plain reduct among
    # the strong reducts of a completed enumeration
    "product-without-cancellation": (W, "concat_reduce", _unreduced_product,
                                     "words-decomposition", 100, {"decomposition": 79}),
    "product-without-cancellation-absorption": (W, "concat_reduce", _unreduced_product,
                                                "words-absorption", 1, {"absorption-law": 210}),
    "product-without-cancellation-order": (W, "concat_reduce", _unreduced_product,
                                           "words-order", 100,
                                           {"product-reduced": 55, "divides-random-pair": 12}),
    "product-without-cancellation-strong": (W, "concat_reduce", _unreduced_product,
                                            "words-strong", 100,
                                            {"plain-among-strong-reducts": 38}),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_laws(monkeypatch, name):
    module, attribute, replacement, suite, cases, laws = MUTANTS[name]
    config = SuiteConfig(suite, seed=0, cases=cases)
    clean = run_suite(config)
    assert clean.passed, clean.failures[:3]
    monkeypatch.setattr(module, attribute, replacement)
    failed = collections.Counter(f["law"] for f in run_suite(config).failures)
    assert {law: failed[law] for law in laws} == laws

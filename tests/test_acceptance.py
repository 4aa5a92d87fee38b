"""Acceptance criteria, each at its stated size and time budget.

Every test prints into the summary via conftest; run with ``pytest -v
tests/test_acceptance.py`` to see one line per criterion.
"""

import itertools
import random
import time

import pseudospace.flags as FL
import pseudospace.words as W
from pseudospace.errors import SearchBoundExceededError
from pseudospace.letters import all_letters
from pseudospace.oracle import (
    SuiteConfig,
    check_fine_decomposition,
    random_script,
    random_strategy_reduce,
    run_suite,
)
from pseudospace.words import Word, parse_word


def _random_word(rng, n, max_len):
    alphabet = all_letters(n)
    return Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))), n)


def test_criterion_01_reduct_uniqueness():
    # 10,000 random words, N <= 3, length <= 8; two randomized maximal
    # cancellation strategies agree up to normal form; < 30 s
    started = time.monotonic()
    gen = random.Random(101)
    s1 = random.Random(102)
    s2 = random.Random(103)
    for _ in range(10_000):
        n = gen.randint(1, 3)
        u = _random_word(gen, n, 8)
        assert random_strategy_reduce(s1, u) == random_strategy_reduce(s2, u)
    assert time.monotonic() - started < 30


def test_criterion_02_absorption_law():
    # exhaustive over reduced u, v with N <= 2, lengths <= 3; < 60 s
    started = time.monotonic()
    pairs = 0
    for n in (1, 2):
        words = [
            Word(c, n)
            for k in range(4)
            for c in itertools.product(all_letters(n), repeat=k)
        ]
        reduced = [u for u in words if W.is_reduced(u)]
        for u in reduced:
            for v in reduced:
                pairs += 1
                assert W.equivalent(W.concat_reduce(u, v), v) == W.absorbs_left(v, u)
    assert pairs > 1000
    assert time.monotonic() - started < 60


def test_criterion_03_decomposition():
    # 5,000 random reduced pairs; all fine and symmetric conditions; < 60 s
    started = time.monotonic()
    rng = random.Random(105)
    for _ in range(5_000):
        n = rng.randint(1, 3)
        u = W.reduce(_random_word(rng, n, 8))
        v = W.reduce(_random_word(rng, n, 8))
        assert check_fine_decomposition(u, v) == []
    assert time.monotonic() - started < 60


def test_criterion_04_splitting_penalty():
    # 2,000 random reduced pairs; bounded enumeration (split <= 3,
    # steps <= 50,000); every reduct besides the plain one lies strictly
    # below it; 100% of decided cases; < 120 s
    started = time.monotonic()
    rng = random.Random(107)
    undecided = 0
    for _ in range(2_000):
        n = rng.randint(1, 3)
        u = W.reduce(_random_word(rng, n, 3))
        v = W.reduce(_random_word(rng, n, 3))
        plain = W.concat_reduce(u, v)
        result = W.strong_reducts_bounded(u.concat(v), 3, 50_000)
        for x in result.words:
            if W.equivalent(x, plain):
                continue
            try:
                assert W.prec(x, plain)
            except SearchBoundExceededError:
                undecided += 1
    assert undecided == 0
    assert time.monotonic() - started < 120


def test_criterion_05_pinned_rank_values():
    # exact rank identities, zero tolerance
    assert str(W.ord_rank(parse_word("[0,1].[1,3]", 3))) == "w^2+w"
    assert str(W.rd_closed_form(parse_word("[0,2]", 2))) == "w^2"
    rng = random.Random(109)
    hits = 0
    for _ in range(2_000):
        n = rng.randint(1, 3)
        u = W.reduce(_random_word(rng, n, 6))
        sizes = [s.size for s in u.letters]
        if sizes == sorted(sizes, reverse=True):
            hits += 1
            assert W.rd_closed_form(u) == W.ord_rank(u)
    assert hits > 100


def test_criterion_06_canonical_base_identities():
    # right stabilizers of the ampleness words, exact, N = 2 and 3; < 1 s
    started = time.monotonic()
    from pseudospace.letters import Letter

    for n in (2, 3):
        for i in range(1, n):
            u = Word((Letter(0, i), Letter(i + 1, n)), n)
            assert W.right_stabilizer(u) == (
                frozenset(range(0, i)) | frozenset(range(i + 1, n + 1))
            )
        u = Word((Letter(0, n - 1), Letter(1, n)), n)
        assert W.right_stabilizer(u) == frozenset(range(1, n + 1))
        assert all(c["pass"] for c in FL.ample_report(n))
    assert time.monotonic() - started < 1


def test_criterion_07_space_axioms():
    # 500 random build scripts (N <= 3, <= 8 ops); < 120 s
    started = time.monotonic()
    report = run_suite(SuiteConfig("space-axioms", seed=111, cases=500))
    assert report.passed, report.failures[:3]
    assert report.cases_run == 500
    assert time.monotonic() - started < 120


def test_criterion_08_flag_path_theory():
    # the same kind of 500 spaces: closed paths, word invariance, scaffold
    started = time.monotonic()
    report = run_suite(SuiteConfig("flags-paths", seed=111, cases=500))
    assert report.passed, report.failures[:3]
    assert report.cases_run == 500
    assert time.monotonic() - started < 120


def test_criterion_09_forking_calculus():
    # >= 1,000 constructed cases incl. the proper-subletter counterexample
    started = time.monotonic()
    report = run_suite(SuiteConfig("flags-forking", seed=113, cases=1000))
    assert report.passed, report.failures[:3]
    assert report.cases_run >= 1000
    assert time.monotonic() - started < 120


def test_criterion_10_strong_reduction_example():
    # s.t.t.s.t strongly reduces to s.t within split length 2; < 5 s
    started = time.monotonic()
    u = parse_word("[0,1].[1,2].[1,2].[0,1].[1,2]", 2)
    result = W.strong_reducts_bounded(u, 2, 50_000)
    assert "[0,1].[1,2]" in result.as_strings()
    assert time.monotonic() - started < 5

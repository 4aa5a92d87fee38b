import itertools
import random

import pytest

import pseudospace.words as W
from brute import all_words, brute_decompose_fine
from pseudospace.errors import NotReducedError
from pseudospace.letters import all_letters
from pseudospace.oracle import check_fine_decomposition
from pseudospace.words import Word, parse_word


def pw(text, n=3):
    return parse_word(text, n)


def test_fine_example():
    d = W.decompose_fine(pw("[2].[0,1]"), pw("[0].[3]"))
    assert (str(d.u1), str(d.u_prime), str(d.v_prime), str(d.v1)) == (
        "[2].[0,1]",
        "1",
        "[0]",
        "[3]",
    )
    assert str(d.reduct()) == "[2].[0,1].[3]"


def test_fine_self_absorption():
    d = W.decompose_fine(pw("[0,1]"), pw("[0,1]"))
    assert (str(d.u1), str(d.u_prime), str(d.v_prime), str(d.v1)) == (
        "1",
        "[0,1]",
        "1",
        "[0,1]",
    )


def test_fine_trivial_left():
    v = pw("[0,1].[1,3]")
    d = W.decompose_fine(pw("1"), v)
    assert (str(d.u1), str(d.u_prime), str(d.v_prime)) == ("1", "1", "1")
    assert W.equivalent(d.v1, v)


def test_symmetric_idempotent_letter():
    d = W.decompose_symmetric(pw("[0,1]"), pw("[0,1]"))
    assert str(d.w) == "[0,1]"
    assert all(str(part) == "1" for part in (d.u1, d.u_prime, d.v_prime, d.v1))
    assert str(d.reduct()) == "[0,1]"


def test_symmetric_no_promotion():
    # [0] is properly contained in [0,1]: stays in v', never moves to w
    d = W.decompose_symmetric(pw("[2].[0,1]"), pw("[0].[3]"))
    assert (str(d.w), str(d.v_prime), str(d.v1)) == ("1", "[0]", "[3]")


def test_symmetric_trivial():
    d = W.decompose_symmetric(pw("1"), pw("1"))
    assert all(
        str(part) == "1" for part in (d.u1, d.u_prime, d.w, d.v_prime, d.v1)
    )


def test_rejects_non_reduced():
    with pytest.raises(NotReducedError):
        W.decompose_fine(pw("[0].[0,1]"), pw("1"))
    with pytest.raises(NotReducedError):
        W.decompose_symmetric(pw("1"), pw("[0].[0,1]"))


def test_exhaustive_small_conditions():
    # every stated condition, exhaustively at N=1, lengths <= 3
    words = [
        Word(c, 1)
        for k in range(4)
        for c in itertools.product(all_letters(1), repeat=k)
    ]
    reduced = [u for u in words if W.is_reduced(u)]
    for u in reduced:
        for v in reduced:
            assert check_fine_decomposition(u, v) == []


def test_random_conditions():
    rng = random.Random(11)
    alphabet = all_letters(3)
    for _ in range(500):
        u = W.reduce(Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6))), 3))
        v = W.reduce(Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6))), 3))
        assert check_fine_decomposition(u, v) == []


def test_product_agrees_with_decomposition():
    rng = random.Random(12)
    alphabet = all_letters(3)
    for _ in range(300):
        u = W.reduce(Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5))), 3))
        v = W.reduce(Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5))), 3))
        d = W.decompose_fine(u, v)
        s = W.decompose_symmetric(u, v)
        prod = W.concat_reduce(u, v)
        assert prod == d.reduct() == s.reduct()


def test_fine_matches_plain_loops():
    """Every reduced pair at N = 2 with length <= 3 and at N = 3 with length
    <= 2, against the decomposition built from the plain stabilizer and
    split loops."""
    pairs = split = 0
    for n, max_len in ((2, 3), (3, 2)):
        reduced = [u for u in all_words(n, max_len) if W.is_reduced(u)]
        for u in reduced:
            for v in reduced:
                d = W.decompose_fine(u, v)
                got = (d.u1.key, d.u_prime.key, d.v_prime.key, d.v1.key)
                assert got == brute_decompose_fine(u, v), (str(u), str(v))
                pairs += 1
                split += len(d.u_prime) > 0 and len(d.v_prime) > 0
    assert pairs == 4450
    assert split > 100, split

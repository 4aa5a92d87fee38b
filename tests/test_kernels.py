"""The word kernels, cross-checked against the restart-loop reference in
``brute.py`` and against words whose reduct is known by construction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from brute import absorbing_positions, bubble_normal_form, restart_reduce, swap_closure
from pseudospace import BACKEND, kernels
from pseudospace.letters import MAX_DIMENSION, Letter
from pseudospace.words import Word

raw_words = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda p: (min(p), max(p))
    ),
    max_size=9,
).map(tuple)


def _random_word(rng, n, length):
    word = []
    for _ in range(length):
        lo = rng.randint(0, n)
        word.append((lo, rng.randint(lo, n)))
    return tuple(word)


def _reduced_word(rng, n, length):
    """A reduced word of ``length`` letters without the full letter ``[0,n]``,
    grown one letter at a time.  A letter is appended when nothing it reaches
    on its left contains it and it contains no letter of the final segment
    (the letters that commute with everything after them)."""
    alphabet = [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1) if (lo, hi) != (0, n)]
    word: list = []
    segment: list = []
    while len(word) < length:
        s = rng.choice(alphabet)
        if any(s[0] <= t[0] and t[1] <= s[1] for t in segment):
            continue
        if kernels.absorbed_at(tuple(word) + (s,), len(word)):
            continue
        word.append(s)
        segment = [t for t in segment if t[0] >= s[1] + 2 or s[0] >= t[1] + 2] + [s]
    return tuple(word)


def test_backend_identifies_itself():
    assert BACKEND == "pure"


def test_reduce_matches_restart_loop():
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.choice([1, 2, 3, 4, 5, 8, 20])
        word = _random_word(rng, n, rng.randint(0, 60))
        assert kernels.reduce_word(word) == restart_reduce(word), word


@pytest.mark.parametrize("n", [3, 20])
@pytest.mark.parametrize("length", [200, 800])
def test_reduce_near_reduced_long_words(n, length):
    # each inserted letter is a subletter of the base letter just before it,
    # so deleting the inserted letters is a cancellation order
    rng = random.Random(length + n)
    extra = length // 10
    base = _reduced_word(rng, n, length - extra)
    assert kernels.is_reduced(base)
    positions = set(rng.sample(range(len(base)), extra))
    word = []
    for i, t in enumerate(base):
        word.append(t)
        if i in positions:
            lo = rng.randint(t[0], t[1])
            word.append((lo, rng.randint(lo, t[1])))
    assert kernels.reduce_word(tuple(word)) == kernels.normal_form(base)


@given(raw_words)
@settings(max_examples=300)
def test_reduce_reaches_fixpoint(word):
    reduced = kernels.reduce_word(word)
    assert kernels.is_reduced(reduced)
    assert kernels.reduce_word(reduced) == reduced
    assert kernels.normal_form(reduced) == reduced


def test_absorber_matches_plain_scan():
    rng = random.Random(19)
    absorbed = 0
    for _ in range(1500):
        n = rng.choice([1, 2, 3, 5, 20])
        word = _random_word(rng, n, rng.randint(0, 40))
        mask = kernels.absorbed(word)
        for i in range(len(word)):
            found = kernels.absorber(word, i)
            positions = absorbing_positions(word, i)
            assert (found is None) == (not kernels.absorbed_at(word, i)) == (not positions)
            assert bool(mask >> i & 1) == bool(positions), (word, i)
            if found is None:
                continue
            absorbed += 1
            right = [j for j in positions if j > i]
            assert found == (min(right) if right else max(positions)), (word, i)
        assert mask >> len(word) == 0
    assert absorbed > 1000


@given(raw_words)
@settings(max_examples=300)
def test_absorbed_mask_matches_plain_scan(word):
    expected = sum(1 << i for i in range(len(word)) if absorbing_positions(word, i))
    assert kernels.absorbed(word) == expected
    assert kernels.is_reduced(word) == (expected == 0)


def _reduced_normal_forms(n, max_len):
    alphabet = [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
    words = itertools.chain.from_iterable(
        itertools.product(alphabet, repeat=k) for k in range(max_len + 1)
    )
    return alphabet, sorted({kernels.normal_form(w) for w in words if kernels.is_reduced(w)})


def test_reduce_onto_a_reduced_prefix_matches_reduce_word():
    # every reduced normal form of N <= 3 and length <= 3 with every letter,
    # whose reduct comes back in normal form; the counts show that both the
    # drop and the deletion branch ran
    cases = dropped = deleting = 0
    for n in (1, 2, 3):
        alphabet, states = _reduced_normal_forms(n, 3)
        for state in states:
            assert kernels.reduce_onto([], state) == list(state)
            for t in alphabet:
                out = kernels.reduce_onto(list(state), (t,))
                expected = kernels.reduce_word(state + (t,))
                assert tuple(out) == expected, (state, t)
                assert expected == restart_reduce(state + (t,)), (state, t)
                cases += 1
                if out == list(state):
                    dropped += 1
                elif len(out) <= len(state):
                    deleting += 1
    assert (cases, dropped > 500, deleting > 500) == (1924, True, True), (cases, dropped, deleting)
    # random unreduced words, where deletions happen mid-word: the output is
    # already a normal form and needs no second pass
    rng = random.Random(2400)
    deleted = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        alphabet = [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        out = tuple(kernels.reduce_onto([], word))
        assert kernels.normal_form(out) == out, word
        assert out == restart_reduce(word), word
        deleted += len(word) - len(out)
    assert deleted > 5000, deleted


def test_normal_form_matches_bubble_sort():
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.choice([1, 2, 3, 4, 5, 8, 20])
        word = _random_word(rng, n, rng.randint(0, 30))
        assert kernels.normal_form(word) == bubble_normal_form(word), word


def _in_order(key) -> bool:
    return not any(a[0] >= b[1] + 2 for a, b in zip(key, key[1:]))


def test_normal_form_is_the_only_ordered_word_of_its_class():
    rng = random.Random(19)
    for _ in range(600):
        n = rng.randint(1, 3)
        word = _random_word(rng, n, rng.randint(0, 5))
        letters = tuple(Letter(lo, hi) for lo, hi in word)
        cls = [tuple(s.key for s in w) for w in swap_closure(Word(letters, n))]
        assert [key for key in cls if _in_order(key)] == [kernels.normal_form(word)], word


@given(raw_words)
@settings(max_examples=300)
def test_normal_form_sorted(word):
    nf = kernels.normal_form(word)
    assert sorted(nf) == sorted(word)
    for a, b in zip(nf, nf[1:]):
        # no adjacent commuting inversion remains
        assert not (a[0] >= b[1] + 2)


def test_mask_table_matches_the_level_sets():
    """Every letter below the dimension cap: its table entry holds the mask
    of its levels and of its levels widened by one on each side."""
    for lo in range(MAX_DIMENSION + 1):
        for hi in range(lo, MAX_DIMENSION + 1):
            levels = sum(1 << i for i in range(lo, hi + 1))
            widened = sum(1 << i for i in range(max(lo - 1, 0), hi + 2))
            assert kernels._MASKS[lo, hi] == (levels, widened), (lo, hi)


def test_kernels_on_words_that_reach_the_top_level():
    """Words at N = 62 whose letters lie in the top eight levels, each with a
    letter ending at level 62: ``reduce_word`` and ``absorbed`` match the
    plain references there too."""
    rng = random.Random(62)
    absorbed = 0
    for _ in range(400):
        word = list(_random_word(rng, 7, rng.randint(0, 14)))
        word.insert(rng.randint(0, len(word)), (rng.randint(0, 7), 7))
        word = tuple((lo + MAX_DIMENSION - 7, hi + MAX_DIMENSION - 7) for lo, hi in word)
        assert kernels.reduce_word(word) == restart_reduce(word), word
        expected = sum(1 << i for i in range(len(word)) if absorbing_positions(word, i))
        assert kernels.absorbed(word) == expected, word
        absorbed += expected != 0
    assert absorbed > 300

import dataclasses
import itertools
import random
import sys
import time

import pytest

import pseudospace.flags as FL
import pseudospace.words as W
from brute import (
    all_words,
    brute_final_segment,
    brute_left_stabilizer,
    brute_prec,
    brute_properly_absorbs_left,
    brute_properly_absorbs_right,
    brute_split_absorbed,
    exhaustive_reducts,
    swap_closure,
)
from pseudospace.errors import (
    DimensionError,
    NotMonotoneError,
    NotReducedError,
    ParseError,
    SearchBoundExceededError,
)
from pseudospace.letters import _LETTERS, Letter, all_letters, commutes, proper_subletters
from pseudospace.oracle import _random_swaps, random_reduced_word, random_script
from pseudospace.space import ColoredSpace
from pseudospace.words import Word, parse_word


def pw(text, n=3):
    return parse_word(text, n)


def test_parse_and_print():
    assert str(pw("1")) == "1"
    assert str(pw("[0,1].[1,3]")) == "[0,1].[1,3]"
    with pytest.raises(ParseError):
        pw("")
    with pytest.raises(ParseError):
        pw("[0]..[1]")
    with pytest.raises(DimensionError):
        pw("[0,4]", 3)


def test_is_reduced_examples():
    assert W.is_reduced(pw("[0,1].[1,3]")) is True
    assert W.is_reduced(pw("[0].[2,3].[0,1]")) is False
    assert W.is_reduced(pw("1")) is True


def test_reduce_examples():
    assert str(W.reduce(pw("[0].[2,3].[0,1]"))) == "[2,3].[0,1]"
    assert str(W.reduce(pw("[0,1].[0,1]"))) == "[0,1]"
    assert str(W.reduce(pw("[0,2]"))) == "[0,2]"


def test_reduce_matches_exhaustive_closure():
    # confluence: the brute-force closure reaches exactly one reduct class
    rng = random.Random(5)
    alphabet = all_letters(3)
    for _ in range(300):
        u = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6))), 3)
        classes = exhaustive_reducts(u)
        assert classes == {W.reduce(u).key}


def test_normal_form_examples():
    assert str(W.normal_form(pw("[2,3].[0]"))) == "[0].[2,3]"
    assert str(W.normal_form(pw("[0,1].[1,3]"))) == "[0,1].[1,3]"
    assert str(W.normal_form(pw("1"))) == "1"


def test_normal_form_is_class_canonical():
    rng = random.Random(6)
    alphabet = all_letters(3)
    for _ in range(100):
        u = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6))), 3)
        cls = swap_closure(u)
        nf = W.normal_form(u).letters
        assert nf in cls
        assert all(W.normal_form(Word(m, 3)).letters == nf for m in cls)
        # the normal form is the unique member without commuting inversions
        no_inversion = [
            m
            for m in cls
            if all(not (m[i].lo >= m[i + 1].hi + 2) for i in range(len(m) - 1))
        ]
        assert no_inversion == [nf]


def test_equivalent_examples():
    assert W.equivalent(pw("[0].[2,3]"), pw("[2,3].[0]"))
    assert not W.equivalent(pw("[0].[1]"), pw("[1].[0]"))
    assert W.equivalent(pw("1"), pw("1"))


def test_inverse_examples():
    assert str(W.inverse(pw("[0].[1,2]"))) == "[1,2].[0]"
    assert str(W.inverse(pw("1"))) == "1"
    u = pw("[0,1].[1,3]")
    assert W.inverse(W.inverse(u)) == u


def test_support_examples():
    assert W.support(pw("[0].[2,3]")) == {0, 2, 3}
    assert W.support(pw("1")) == frozenset()
    assert W.support(pw("[0,1].[1,3]")) == {0, 1, 2, 3}


def test_final_segment_examples():
    rem, seg = W.final_segment(pw("[0].[2,3]"))
    assert (str(rem), str(seg)) == ("1", "[0].[2,3]")
    rem, seg = W.final_segment(pw("[0,1].[1,3]"))
    assert (str(rem), str(seg)) == ("[0,1]", "[1,3]")
    rem, seg = W.final_segment(pw("1"))
    assert (str(rem), str(seg)) == ("1", "1")


def test_final_segment_recombines():
    rng = random.Random(7)
    alphabet = all_letters(3)
    for _ in range(200):
        u = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6))), 3)
        rem, seg = W.final_segment(u)
        assert W.equivalent(rem.concat(seg), u)
        # the segment is a commuting word
        assert all(
            commutes(a, b) for a, b in itertools.combinations(seg.letters, 2)
        )


def test_final_segment_matches_pairwise_scan():
    """Every word of length <= 4 with N <= 3 against the pairwise scan."""
    checked = split = 0
    for n in (1, 2, 3):
        for u in all_words(n, 4):
            rem, seg = W.final_segment(u)
            assert (rem.key, seg.key) == brute_final_segment(u), str(u)
            checked += 1
            split += len(rem) > 0 and len(seg) > 0
    assert checked == 121 + 1555 + 11111
    assert split > 1000, split


def test_stabilizer_examples():
    assert W.left_stabilizer(pw("[1,2].[0,3]")) == {1, 2}
    assert W.right_stabilizer(parse_word("[0,1].[1,2]", 2)) == {1, 2}
    assert W.right_stabilizer(pw("[0,1].[2,3]")) == {0, 2, 3}


def test_stabilizers_match_level_sets():
    """Both stabilizers against the level-set loop on every word of length
    <= 3 with N <= 3; the right one is the left one of the reversed word."""
    checked = 0
    for n in (1, 2, 3):
        for v in all_words(n, 3):
            assert W.left_stabilizer(v) == brute_left_stabilizer(v), str(v)
            assert W.right_stabilizer(v) == brute_left_stabilizer(W.inverse(v)), str(v)
            checked += 1
    assert checked == 1410


def test_absorption_examples():
    assert W.absorbs_left(pw("[0,1]"), pw("[0]"))
    assert not W.absorbs_left(pw("[1,2].[0,3]"), pw("[0]"))
    assert W.absorbs_left(pw("[1,2].[0,3]"), pw("1"))


def test_proper_absorption_matches_plain_scan():
    """Both sides on every pair of words of length <= 3 with N <= 2."""
    held = {"left": 0, "right": 0}
    pairs = 0
    for n in (1, 2):
        words = all_words(n, 3)
        for v, u in itertools.product(words, repeat=2):
            left = W.properly_absorbs_left(v, u)
            right = W.properly_absorbs_right(v, u)
            assert left == brute_properly_absorbs_left(v, u), (str(v), str(u))
            assert right == brute_properly_absorbs_right(v, u), (str(v), str(u))
            held["left"] += left and len(u) > 0
            held["right"] += right and len(u) > 0
            pairs += 1
    assert pairs == 40**2 + 259**2
    assert min(held.values()) > 1000, held


def test_absorption_rejects_mixed_dimensions():
    """``[0]`` lies inside ``[0,5]``, and the empty word inside anything, yet
    words of different dimensions are no instance of either side."""
    v = parse_word("[0,5]", 5)
    for u in (parse_word("[0]", 2), Word.one(2)):
        for absorbs in (W.absorbs_left, W.properly_absorbs_left, W.properly_absorbs_right):
            with pytest.raises(DimensionError):
                absorbs(v, u)
            with pytest.raises(DimensionError):
                absorbs(u, v)


def test_split_absorbed_examples():
    u1, u2 = W.split_absorbed(pw("[2].[0,1]"), frozenset({0, 1}))
    assert (str(u1), str(u2)) == ("[2]", "[0,1]")
    u1, u2 = W.split_absorbed(pw("[0,1].[1,3]"), frozenset({1, 2, 3}))
    assert (str(u1), str(u2)) == ("[0,1]", "[1,3]")
    u = pw("[0,1].[1,3]")
    u1, u2 = W.split_absorbed(u, frozenset())
    assert (u1, str(u2)) == (u, "1")


def test_split_absorbed_matches_plain_loop():
    """Every word of length <= 3 with N <= 2 against every set of levels."""
    checked = moved = 0
    for n in (1, 2):
        sets = [
            frozenset(c) for k in range(n + 2) for c in itertools.combinations(range(n + 1), k)
        ]
        for u in all_words(n, 3):
            for levels in sets:
                u1, u2 = W.split_absorbed(u, levels)
                assert (u1.key, u2.key) == brute_split_absorbed(u, levels), (str(u), levels)
                checked += 1
                moved += len(u2) > 0
    assert checked == 40 * 4 + 259 * 8
    assert moved > 500, moved


def test_split_absorbed_laws():
    rng = random.Random(8)
    alphabet = all_letters(3)
    for _ in range(300):
        u = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6))), 3)
        S = frozenset(rng.sample(range(4), rng.randint(0, 4)))
        u1, u2 = W.split_absorbed(u, S)
        assert W.equivalent(u1.concat(u2), u)
        assert all(s.levels() <= S for s in u2.letters)
        _, seg = W.final_segment(u1)
        assert not any(s.levels() <= S for s in seg.letters)


def test_concat_reduce_examples():
    assert str(W.concat_reduce(pw("[0,1]"), pw("[0]"))) == "[0,1]"
    assert str(W.concat_reduce(pw("[0]"), pw("[2]"))) == "[0].[2]"
    assert str(W.concat_reduce(pw("[2].[0,1]"), pw("[0].[3]"))) == "[2].[0,1].[3]"


def test_wobbling_examples():
    assert W.wobbling(parse_word("[0,1]", 2), parse_word("[1,2]", 2)) == {1}
    assert W.wobbling(pw("1"), pw("[1,2].[0,3]")) == frozenset()
    assert W.wobbling(pw("[0]"), pw("[2]")) == frozenset()


def test_prec_examples():
    assert W.prec(pw("[0].[3]"), pw("[0,1].[1,3]"))
    assert not W.prec(pw("[0,1]"), pw("[0,1]"))
    assert W.prec(pw("1"), pw("[0]"))


def test_prec_matches_brute_force():
    """Every pair of words, reduced or not: N <= 2 up to length 3 and N = 3
    up to length 2.  Treating u as a multiset, without commutation, fails
    2,572 of these pairs."""
    pairs = holds = tangled = 0
    for n, max_len in ((1, 3), (2, 3), (3, 2)):
        words = all_words(n, max_len)
        for u in words:
            # the pairs whose u has an adjacent pair of letters that do not commute
            tangled += len(words) * any(
                not commutes(a, b) for a, b in zip(u.letters, u.letters[1:])
            )
            for v in words:
                result = W.prec(u, v)
                assert result == brute_prec(u, v), (str(u), str(v))
                pairs += 1
                holds += result
    assert (pairs, holds, pairs - holds) == (81_002, 26_440, 54_562)
    assert tangled == 75_662


def test_prec_matches_brute_force_on_longer_pairs():
    """1,500 seeded pairs of combined length 9 to 12, N = 2 to 6, beyond the lengths of the exhaustive sweep.  Every other
    pair is built to hold: one letter of v is replaced by a product of its
    proper subletters, and commuting letters of the result are swapped at
    random.  The rest are random pairs, of which 282 hold."""
    rng = random.Random(2301)
    holds = 0
    for i in range(1500):
        n = rng.randint(2, 6)
        total = rng.randint(9, 12)
        alphabet = all_letters(n)
        if i % 2 == 0:
            # v has k letters and the product total + 1 - 2k
            k = rng.randint(1, (total + 1) // 2)
            v = [rng.choice(alphabet) for _ in range(k)]
            j = rng.randrange(k)
            while total + 1 - 2 * k and v[j].size == 1:
                v[j] = rng.choice(alphabet)
            product = [rng.choice(proper_subletters(v[j])) for _ in range(total + 1 - 2 * k)]
            keys = _random_swaps(rng, [s.key for s in v[:j] + product + v[j + 1 :]], 3 * total)
            u = [_LETTERS[key] for key in keys]
        else:
            k = rng.randint(0, total)
            u = [rng.choice(alphabet) for _ in range(k)]
            v = [rng.choice(alphabet) for _ in range(total - k)]
        u, v = Word(u, n), Word(v, n)
        result = W.prec(u, v)
        assert result == brute_prec(u, v), (str(u), str(v))
        assert result or i % 2, (str(u), str(v))
        holds += result
    assert (holds, 1500 - holds) == (1032, 468)


def _prec_family(k: int) -> tuple[Word, Word]:
    """``F_k`` at N = 3k + 4: ``u = [0,1].[0]...[3k-3,3k-2].[3k-3].[3k+1,3k+2].[3k]``
    and ``v = [0,1]...[3k-3,3k-2].[0,3k].[3k+1,3k+3]``.  Each ``[3j,3j+1]``
    of v is kept or emptied, and ``[3k]`` never gets free."""
    n = 3 * k + 4
    u = [s for j in range(k) for s in (Letter(3 * j, 3 * j + 1), Letter(3 * j, 3 * j))]
    u += [Letter(3 * k + 1, 3 * k + 2), Letter(3 * k, 3 * k)]
    v = [Letter(3 * j, 3 * j + 1) for j in range(k)]
    v += [Letter(0, 3 * k), Letter(3 * k + 1, 3 * k + 3)]
    return Word(u, n), Word(v, n)


def test_prec_budget(monkeypatch):
    """``prec`` answers any pair whose search stores at most ``_PREC_STATES``
    states, however long, and refuses only a search that passes it.  ``F_k``
    stores exactly ``2^(k+1) + 1`` states before it answers False, so ``F_14``
    answers and ``F_16`` is refused.  Pairs of 160 letters built to hold, as
    in the test above, store exactly ``|v| + 1``, and the search needs no
    stack frame per letter."""
    for k in (2, 3):
        u, v = _prec_family(k)
        assert W.prec(u, v) is brute_prec(u, v) is False
    assert W.prec(*_prec_family(14)) is False
    started = time.perf_counter()
    with pytest.raises(SearchBoundExceededError):
        W.prec(*_prec_family(16))
    assert time.perf_counter() - started < 1.0
    rng = random.Random(2302)
    built = []
    for _ in range(30):
        n = rng.randint(2, 6)
        alphabet = all_letters(n)
        v = [rng.choice(alphabet) for _ in range(160)]
        j = rng.randrange(160)
        while v[j].size == 1:
            v[j] = rng.choice(alphabet)
        product = [rng.choice(proper_subletters(v[j])) for _ in range(rng.randint(0, 3))]
        keys = _random_swaps(rng, [s.key for s in v[:j] + product + v[j + 1 :]], 3 * 160)
        u, v = Word([_LETTERS[key] for key in keys], n), Word(v, n)
        assert W.prec(u, v), (str(u), str(v))
        built.append((u, v))
    # a search deeper than the interpreter's recursion limit
    depth = sys.getrecursionlimit() + 100
    long = [Letter(0, 1)] * depth
    assert W.prec(Word(long[1:] + [Letter(0, 0)], 2), Word(long, 2))
    # the state counts, pinned by budgets that just fit
    for k in range(2, 7):
        u, v = _prec_family(k)
        monkeypatch.setattr(W, "_PREC_STATES", 2 ** (k + 1) + 1)
        assert W.prec(u, v) is False
        monkeypatch.setattr(W, "_PREC_STATES", 2 ** (k + 1))
        with pytest.raises(SearchBoundExceededError):
            W.prec(u, v)
    monkeypatch.setattr(W, "_PREC_STATES", 161)
    assert all(W.prec(u, v) for u, v in built)


def test_absorption_law_exhaustive_n1():
    words = [
        Word(c, 1)
        for k in range(3)
        for c in itertools.product(all_letters(1), repeat=k)
    ]
    reduced = [u for u in words if W.is_reduced(u)]
    for u in reduced:
        for v in reduced:
            assert W.equivalent(W.concat_reduce(u, v), v) == W.absorbs_left(v, u)


def test_ord_rank_examples():
    assert str(W.ord_rank(pw("[0,1].[1,3]"))) == "w^2+w"
    assert str(W.ord_rank(pw("1"))) == "0"
    assert str(W.ord_rank(pw("[0,2].[1,2].[3]"))) == "w^2+w+1"


def test_rd_closed_form_examples():
    assert str(W.rd_closed_form(pw("[0,2].[2,3].[1]"))) == "w^2+w+1"
    assert str(W.rd_closed_form(parse_word("[0,2]", 2))) == "w^2"
    with pytest.raises(NotMonotoneError):
        W.rd_closed_form(pw("[0,1].[1,3]"))
    with pytest.raises(NotReducedError):
        W.rd_closed_form(pw("[0,2].[1,2].[3]"))


def test_prec_implies_ord_drop():
    rng = random.Random(10)
    alphabet = all_letters(3)
    checked = 0
    for _ in range(500):
        u = W.reduce(Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4))), 3))
        v = W.reduce(Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4))), 3))
        if W.prec(u, v):
            checked += 1
            assert W.ord_rank(u) < W.ord_rank(v)
    assert checked > 10


def _assert_checked_equal(w):
    # the checked constructor accepts the word and rebuilds an equal one
    rebuilt = Word(w.letters, w.n)
    assert rebuilt == w and w == rebuilt
    assert hash(rebuilt) == hash(w)
    assert w.key == tuple(s.key for s in w.letters)
    assert type(w.key) is tuple and type(w.letters) is tuple


def test_word_stores_only_its_key_and_dimension():
    """Parsed or computed, a word holds its key and dimension and nothing
    else; its letters are the shared ones of its key, and it is frozen."""
    parsed = pw("[0,1].[2,3].[1].[0,3]")
    for w in (parsed, W.reduce(parsed), W.inverse(parsed), *W.final_segment(parsed), Word.one(3)):
        assert set(vars(w)) == {"key", "n"}
        letters = w.letters
        assert len(letters) == len(w.key)
        assert all(letters[i] is _LETTERS[w.key[i]] for i in range(len(w)))
        for name, value in (("key", ()), ("n", 4), ("letters", ()), ("extra", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, name, value)
        assert set(vars(w)) == {"key", "n"}


def _word_corpus():
    rng = random.Random(11)
    for n in (1, 2, 3, 5, 20):
        alphabet = all_letters(n)
        for _ in range(40):
            u = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 60))), n)
            v = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 60))), n)
            levels = frozenset(rng.sample(range(n + 1), rng.randint(0, n + 1)))
            yield u, v, levels


def test_internal_results_rebuild_through_checked_word():
    for u, v, levels in _word_corpus():
        ru, rv = W.reduce(u), W.reduce(v)
        results = [
            ru,
            W.normal_form(u),
            u.concat(v),
            W.concat_reduce(u, v),
            W.inverse(u),
            *W.final_segment(u),
            *W.split_absorbed(u, levels),
            *W.split_absorbed(ru, W.left_stabilizer(rv)),
        ]
        fine = W.decompose_fine(ru, rv)
        sym = W.decompose_symmetric(ru, rv)
        results += [fine.u1, fine.u_prime, fine.v_prime, fine.v1, fine.reduct()]
        results += [sym.u1, sym.u_prime, sym.v_prime, sym.v1, sym.w, sym.reduct()]
        for w in results:
            assert w.n == u.n
            _assert_checked_equal(w)


def test_flag_path_words_rebuild_through_checked_word():
    rng = random.Random(12)
    spaces = [ColoredSpace.from_script(random_script(rng, 3)) for _ in range(20)]
    for n in (1, 2, 3, 5):
        space = ColoredSpace(n)
        base = FL.Flag(tuple(space.apply_alpha(Letter(0, n))))
        for _ in range(3):
            FL.realize_type(space, base, random_reduced_word(rng, n, 4))
        spaces.append(space)
    checked = 0
    for space in spaces:
        flags = FL.enumerate_flags(space)
        for f, g in itertools.islice(itertools.product(flags, repeat=2), 40):
            _assert_checked_equal(FL.weak_word(space, f, g))
            path = FL.flag_path(space, f, g)
            _assert_checked_equal(path.word)
            swapped = _random_swaps(rng, list(path.word.key), 3 * len(path.word))
            target = Word(tuple(Letter(*k) for k in swapped), space.n)
            permuted = FL.permute_path(space, path, target)
            _assert_checked_equal(permuted.word)
            checked += 1
    assert checked > 200

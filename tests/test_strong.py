import random

import pytest

import pseudospace.words as W
from brute import all_words, brute_divisors
from pseudospace.errors import NotReducedError
from pseudospace.letters import all_letters
from pseudospace.words import Word, parse_word


def pw(text, n=3):
    return parse_word(text, n)


def test_splitting_example_from_double_letter():
    result = W.strong_reducts_bounded(pw("[0,1].[0,1]"), 2, 1000)
    assert not result.exhausted
    assert set(result.as_strings()) >= {"[0,1]", "1", "[0]", "[1]", "[0].[1]", "[1].[0]"}


def test_interleaved_splitting_example():
    # s.t.t.s.t strongly reduces to s.t
    u = parse_word("[0,1].[1,2].[1,2].[0,1].[1,2]", 2)
    result = W.strong_reducts_bounded(u, 2, 10_000)
    assert "[0,1].[1,2]" in result.as_strings()


def test_no_splitting_means_unique_reduct():
    u = pw("[0].[2,3].[0,1]")
    result = W.strong_reducts_bounded(u, 3, 1000)
    assert result.words == {W.reduce(u)}


def test_budget_exhaustion_is_reported():
    u = parse_word("[0,3].[0,3]", 3)
    full = W.strong_reducts_bounded(u, 3, 100_000)
    assert not full.exhausted
    truncated = W.strong_reducts_bounded(u, 3, 5)
    assert truncated.exhausted
    assert truncated.words <= full.words


def test_split_beyond_the_budget_is_left_out():
    """A letter whose candidate products outnumber the step budget is not
    split: [0,3] has 9 proper subletters, so 1 + 9 + 81 + 729 = 820 products
    at split length 3.  The cancellation still runs and the result says the
    enumeration is incomplete."""
    u = parse_word("[0,3].[0,3]", 3)
    assert W._split_candidates((0, 3), 3) == 820
    assert W._split_candidates((0, 7), 3) == 44_136
    capped = W.strong_reducts_bounded(u, 3, 819)
    assert capped.exhausted and capped.as_strings() == ["[0,3]"]
    assert capped.steps == 2
    full = W.strong_reducts_bounded(u, 3, 820)
    assert not full.exhausted and capped.words < full.words


def test_soundness_every_reduct_is_reduced():
    rng = random.Random(21)
    alphabet = all_letters(3)
    for _ in range(100):
        u = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5))), 3)
        result = W.strong_reducts_bounded(u, 2, 20_000)
        for x in result.words:
            assert W.is_reduced(x)


def test_splitting_penalty_sampled():
    rng = random.Random(22)
    alphabet = all_letters(3)
    for _ in range(200):
        u = W.reduce(Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3))), 3))
        v = W.reduce(Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3))), 3))
        plain = W.concat_reduce(u, v)
        result = W.strong_reducts_bounded(u.concat(v), 3, 50_000)
        for x in result.words:
            if not W.equivalent(x, plain):
                assert W.prec(x, plain)


def test_inverse_cancellation():
    rng = random.Random(23)
    alphabet = all_letters(3)
    for _ in range(100):
        u = W.reduce(Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3))), 3))
        result = W.strong_reducts_bounded(u.concat(W.inverse(u)), 3, 50_000)
        assert result.exhausted or Word.one(3) in result.words


def test_divides_left_examples():
    res = W.divides_left_bounded(pw("[0,1]"), pw("[0,1].[1,3]"))
    assert (str(res.witness), res.conclusive, res.explored) == ("[1,3]", True, 1)
    res = W.divides_left_bounded(pw("[0]"), pw("[0]"))
    assert str(res.witness) == "1"
    res = W.divides_left_bounded(pw("[1,3]"), pw("[0]"))
    assert (res.witness, res.conclusive, res.explored) == (None, True, 1)


def test_divides_rejects_non_reduced():
    with pytest.raises(NotReducedError):
        W.divides_left_bounded(pw("[0].[0,1]"), pw("[0,1]"))


def test_divides_matches_brute_force():
    """Every pair of reduced words: N = 1 with u, v up to 3 letters, N = 2
    with u up to 2 and v up to 3, and N = 3 with u, v up to 2.  The least
    witness has at most ``|v|`` letters, so ``brute_divisors(u, v, len(v))``
    finds every witness length that matters: the answer is ``None`` exactly
    when it finds none, and otherwise a witness of its least length.  The
    total of ``explored`` pins what the pass counts: the letters of ``v``
    scanned while looking up letters of ``u``."""
    outcomes = {"witness": 0, "none": 0, "inconclusive": 0}
    explored = 0
    for n, u_len, v_len in ((1, 3, 3), (2, 2, 3), (3, 2, 2)):
        us = [u for u in all_words(n, u_len) if W.is_reduced(u)]
        vs = [v for v in all_words(n, v_len) if W.is_reduced(v)]
        for u in us:
            for v in vs:
                res = W.divides_left_bounded(u, v)
                brute = brute_divisors(u, v, len(v))
                explored += res.explored
                if not res.conclusive:
                    outcomes["inconclusive"] += 1
                elif res.witness is None:
                    assert brute == [], (str(u), str(v))
                    outcomes["none"] += 1
                else:
                    assert W.equivalent(W.concat_reduce(u, res.witness), v)
                    assert len(res.witness) == min(map(len, brute)), (str(u), str(v))
                    outcomes["witness"] += 1
    assert outcomes == {"witness": 789, "none": 2693, "inconclusive": 0}
    assert explored == 4605


@pytest.mark.parametrize("v", ["[1,2].[0]", "[1].[0].[1]"])
def test_division_concludes_when_the_last_level_is_pruned(v):
    """Two targets that ``[0]`` does not divide although its support lies
    inside theirs: the answer is a conclusive negative."""
    res = W.divides_left_bounded(parse_word("[0]", 2), parse_word(v, 2))
    assert (res.witness, res.conclusive) == (None, True)


def test_division_settles_what_a_bounded_search_could_not():
    """At N = 3, ``[2].[3].[1].[0]`` does not divide
    ``[1,3].[0,2].[2,3].[0,1]``: no word of up to four letters is a witness,
    and a witness would need no more.  A search that extends ``u`` one
    letter at a time does not settle this pair within 58,000 letters."""
    u, v = pw("[2].[3].[1].[0]"), pw("[1,3].[0,2].[2,3].[0,1]")
    assert brute_divisors(u, v, len(v)) == []
    res = W.divides_left_bounded(u, v)
    assert (res.witness, res.conclusive) == (None, True)


def test_division_of_long_words():
    """``u`` of 200 letters divides ``v = reduce(u.w)`` for short ``w``, with
    a witness of at most ``|reduce(w)|`` letters.  ``u`` is grown from
    letters of at most two levels, which a large letter cannot absorb."""
    rng = random.Random(2500)
    for _ in range(20):
        n = rng.randint(3, 6)
        small = [s for s in all_letters(n) if s.size <= 2]
        u = Word.one(n)
        for _ in range(4000):
            longer = u.concat(Word((rng.choice(small),), n))
            if W.is_reduced(longer):
                u = longer
            if len(u) == 200:
                break
        assert len(u) == 200
        w = Word(tuple(rng.choice(all_letters(n)) for _ in range(rng.randint(0, 6))), n)
        v = W.concat_reduce(u, w)
        res = W.divides_left_bounded(u, v)
        assert res.witness is not None and res.conclusive
        assert W.equivalent(W.concat_reduce(u, res.witness), v)
        assert len(res.witness) <= len(W.reduce(w))


def _grown_reduced(rng, n, length):
    """A reduced word of up to ``length`` letters, grown one letter at a time:
    a drawn letter is appended when the word stays reduced."""
    alphabet = all_letters(n)
    word = Word.one(n)
    for _ in range(4 * length):
        if len(word) == length:
            break
        longer = word.concat(Word((rng.choice(alphabet),), n))
        if W.is_reduced(longer):
            word = longer
    return word


def test_division_at_the_workload_shape():
    """2,000 seeded calls shaped like the benchmark's: N = 2 or 3, ``u`` of up
    to 4 letters, and targets ``reduce(u.w)`` with ``|w| <= 2`` (a witness
    exists) or, one call in four, random reduced words.  Every answer is
    conclusive, and every divisible target gets a witness."""
    rng = random.Random(2300)
    outcomes = {"witness": 0, "none": 0, "inconclusive": 0}
    for i in range(2000):
        n = rng.randint(2, 3)
        u = _grown_reduced(rng, n, rng.randint(0, 4))
        divisible = i % 4 != 3
        if divisible:
            w = Word(tuple(rng.choice(all_letters(n)) for _ in range(rng.randint(0, 2))), n)
            v = W.concat_reduce(u, w)
        else:
            v = _grown_reduced(rng, n, rng.randint(0, 4))
        res = W.divides_left_bounded(u, v)
        if not res.conclusive:
            outcomes["inconclusive"] += 1
        elif res.witness is not None:
            assert W.equivalent(W.concat_reduce(u, res.witness), v), (str(u), str(v))
            outcomes["witness"] += 1
        else:
            assert not divisible, (str(u), str(v))
            outcomes["none"] += 1
    assert outcomes == {"witness": 1682, "none": 318, "inconclusive": 0}

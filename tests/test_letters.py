import itertools

import pytest

from pseudospace.errors import DimensionError, ParseError
from pseudospace.letters import (
    _LETTERS,
    Letter,
    all_letters,
    commutes,
    contains,
    format_index_set,
    index_set_to_letters,
    parse_letter,
    proper_subletters,
)


def L(text):
    return parse_letter(text)


def test_commutes_examples():
    assert commutes(L("[0]"), L("[2,3]")) is True
    assert commutes(L("[0,1]"), L("[1,3]")) is False
    assert commutes(L("[0,1]"), L("[0,1]")) is False


def test_contains_examples():
    assert contains(L("[0,1]"), L("[0]"), proper=True) is True
    assert contains(L("[0,1]"), L("[0,1]"), proper=True) is False
    assert contains(L("[1,3]"), L("[0,1]")) is False


def test_commutes_symmetric_irreflexive():
    for s, t in itertools.product(all_letters(3), repeat=2):
        assert commutes(s, t) == commutes(t, s)
        if s == t:
            assert not commutes(s, t)
        if t.lo >= s.hi + 2:  # s lies entirely below t
            assert commutes(s, t)


def test_containment_antisymmetric():
    for s, t in itertools.product(all_letters(3), repeat=2):
        if contains(s, t) and contains(t, s):
            assert s == t


def test_no_letter_commutes_with_subletter():
    for s in all_letters(3):
        for t in proper_subletters(s):
            assert not commutes(s, t)


def test_parse_strictness():
    assert parse_letter("[3]") == Letter(3, 3)
    assert parse_letter("[0,2]") == Letter(0, 2)
    for bad in ["[1, 2]", "(1,2)", "[2,1]", "[a]", "[]", "[1,2,3]", "1", 5, [0, 1]]:
        with pytest.raises(ParseError):
            parse_letter(bad)


def test_parse_takes_ascii_digits_only():
    """``str.isdigit()`` holds for superscripts and for other scripts'
    digits; ``int`` refuses the first and reads the others as numbers."""
    for bad in ["[²]", "[٣]", "[0,３]", "[1,²]"]:
        with pytest.raises(ParseError):
            parse_letter(bad)


def test_letter_str_roundtrip():
    for s in all_letters(4):
        assert parse_letter(str(s)) == s


def test_index_set_format():
    assert format_index_set(frozenset({2, 0})) == "{0,2}"


def test_index_set_interval_decomposition():
    assert [str(s) for s in index_set_to_letters(frozenset({0, 2, 3}))] == ["[0]", "[2,3]"]
    parts = index_set_to_letters(frozenset({0, 1, 3}))
    assert all(commutes(a, b) for a, b in itertools.combinations(parts, 2))


def test_dimension_cap():
    with pytest.raises(DimensionError):
        all_letters(63)
    with pytest.raises(DimensionError):
        all_letters(0)


def test_shared_letters_are_checked_on_creation():
    for bad in [(2, 1), (-1, 0), (0.5, 1)]:
        with pytest.raises(ParseError):
            _LETTERS[bad]
        assert bad not in _LETTERS
    with pytest.raises(ParseError):
        index_set_to_letters(frozenset({-1, 0}))
    built = all_letters(4) + proper_subletters(Letter(1, 4))
    built += index_set_to_letters(frozenset({0, 2, 3}))
    for s in built:
        assert s == Letter(s.lo, s.hi)
        assert s is _LETTERS[s.key]

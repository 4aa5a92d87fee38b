import pytest
from hypothesis import given, strategies as st

from pseudospace.errors import ParseError
from pseudospace.ordinals import CnfOrdinal, cnf_add, cnf_cmp, format_cnf, parse_cnf

w = CnfOrdinal.omega_power


def test_cmp_examples():
    assert cnf_cmp(w(2), w(2) + w(1)) == -1
    assert cnf_cmp(w(1, 3), w(1, 3)) == 0
    assert cnf_cmp(w(2), w(1, 100)) == 1


def test_add_examples():
    assert cnf_add(w(1) + parse_cnf("1"), w(2)) == w(2)
    assert cnf_add(w(2), w(1)) == parse_cnf("w^2+w")
    assert cnf_add(CnfOrdinal.zero(), w(3, 2)) == w(3, 2)


def test_add_merges_equal_lead():
    assert cnf_add(w(1, 2), w(1)) == w(1, 3)
    assert cnf_add(w(2) + w(1, 2), w(1) + parse_cnf("4")) == parse_cnf("w^2+w*3+4")


def test_format_canonical():
    assert format_cnf(parse_cnf("w^2+w^1*1+w^0*3")) == "w^2+w+3"
    assert str(CnfOrdinal.zero()) == "0"
    assert str(w(1, 2)) == "w*2"
    assert str(w(5)) == "w^5"


def test_parse_rejects_garbage():
    # str.isdigit() holds for "²" and "٣", which are no ASCII digits
    for bad in ["", "w^", "3+w", "w*0", "w+w", "2*3", "²", "w^²", "w*٣"]:
        with pytest.raises(ParseError):
            parse_cnf(bad)


cnf_values = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 5)), max_size=4
).map(lambda kv: CnfOrdinal(tuple(sorted({e: c for e, c in kv}.items(), reverse=True))))


@given(cnf_values, cnf_values, cnf_values)
def test_add_associative(a, b, c):
    assert cnf_add(cnf_add(a, b), c) == cnf_add(a, cnf_add(b, c))


@given(cnf_values, cnf_values)
def test_add_dominates_right(a, b):
    assert cnf_cmp(cnf_add(a, b), b) >= 0
    if b.is_zero:
        assert cnf_add(a, b) == a


@given(cnf_values, cnf_values)
def test_cmp_total_order(a, b):
    assert cnf_cmp(a, b) == -cnf_cmp(b, a)
    if cnf_cmp(a, b) == 0:
        assert a == b


@given(cnf_values)
def test_format_parse_roundtrip(a):
    assert parse_cnf(format_cnf(a)) == a

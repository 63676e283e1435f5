from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlsl2.halfint import HalfInt, halfint


def test_parse_forms():
    assert halfint("3/2").twice == 3
    assert halfint("2").twice == 4
    assert halfint("-1/2").twice == -1
    assert halfint(2).twice == 4
    assert halfint(Fraction(5, 2)).twice == 5
    assert halfint(1.5).twice == 3


def test_reject_non_half_integers():
    with pytest.raises(ValueError):
        halfint("1/3")
    with pytest.raises(ValueError):
        halfint(0.3)
    with pytest.raises(TypeError):
        HalfInt(1.5)


@given(st.integers(-40, 40))
def test_mm1_exact(t):
    m = HalfInt(t)
    assert m.mm1() == m.exact * (m.exact + 1)


def test_arithmetic_and_ordering():
    m = halfint("1/2")
    assert (m + 1).twice == 3
    assert (m - 1).twice == -1
    assert (-m).twice == -1
    assert halfint("1/2") < halfint("3/2")
    assert halfint(1) == 1
    assert str(halfint("3/2")) == "3/2"
    assert str(halfint(2)) == "2"

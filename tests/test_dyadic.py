import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from trapdoor.dyadic import Dyadic

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=0, max_value=60),
)


def test_normalization():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(6, 1) == Dyadic(3, 0)
    assert Dyadic(0, 7).exp == 0
    d = Dyadic(12, 1)  # 6, numerator stays even once exp hits 0
    assert (d.num, d.exp) == (6, 0)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError, match=r"use Dyadic\.shift"):
        Dyadic(1, -1)


def test_basic_arithmetic():
    half = Dyadic(1, 1)
    assert half + half == 1
    assert half * half == Dyadic(1, 2)
    assert 1 - half == half
    assert -half + half == 0
    assert half.shift(1) == 1
    assert half.shift(-1) == Dyadic(1, 2)


def test_division_by_powers_of_two_only():
    assert Dyadic(3, 0) / 2 == Dyadic(3, 1)
    assert Dyadic(3, 1) / Dyadic(1, 1) == 3
    assert Dyadic(5, 0) / -4 == Dyadic(-5, 2)
    with pytest.raises(ValueError):
        Dyadic(1, 0) / 3
    with pytest.raises(ZeroDivisionError):
        Dyadic(1, 0) / 0


def test_comparisons_and_hash():
    assert Dyadic(1, 1) < 1
    assert Dyadic(3, 1) > 1
    assert Dyadic(2, 0) == 2
    assert hash(Dyadic(2, 0)) == hash(2)
    assert hash(Dyadic(1, 1)) == hash(Fraction(1, 2))


def test_str_forms():
    assert str(Dyadic(5, 1)) == "5/2"
    assert str(Dyadic(-3, 1)) == "-3/2"
    assert str(Dyadic(7, 0)) == "7"
    assert str(Dyadic(0)) == "0"


@given(dyadics, dyadics)
def test_add_matches_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()


@given(dyadics, dyadics)
def test_mul_matches_fractions(a, b):
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()


@given(dyadics, dyadics, dyadics)
def test_associativity_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(dyadics)
def test_normal_form_invariant(d):
    assert d.exp >= 0
    if d.num == 0:
        assert d.exp == 0
    elif d.exp > 0:
        assert d.num % 2 == 1


@given(dyadics)
def test_round_trip_fraction(d):
    f = d.as_fraction()
    assert f == Fraction(d.num, 1 << d.exp) and f.denominator == 1 << d.exp
    assert Dyadic(f.numerator, f.denominator.bit_length() - 1) == d


@given(dyadics, st.one_of(dyadics, st.integers(min_value=-(10**15), max_value=10**15)))
def test_order_matches_fractions(a, b):
    fa, fb = a.as_fraction(), b.as_fraction() if isinstance(b, Dyadic) else Fraction(b)
    assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb, fa >= fb)
    assert (b < a, b <= a, b > a, b >= a) == (fb < fa, fb <= fa, fb > fa, fb >= fa)


@pytest.mark.parametrize("other", (0.5, Fraction(1, 2)))
def test_order_against_floats_and_fractions_raises(other):
    half = Dyadic(1, 1)
    assert half == other
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((half, other), (other, half)):
            with pytest.raises(TypeError):
                op(a, b)

"""Series.inverse and series_exp against sympy's power series.

Random series with rational coefficients in hbar, truncated at orders 1 to
5: the inverse of one whose constant term is a unit, and the exponential of
one whose constant term is zero, agree coefficient by coefficient with
sympy.series of 1/p and exp(p) for the polynomial p of the same
coefficients.  Both refuse the other kind of constant term.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist.errors import NonNilpotent, NonUnit
from hopftwist.scalars import Series, series_exp

SETTINGS = settings(max_examples=25, deadline=None)
H = sympy.Symbol("h")
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)
UNITS = RATIONALS.filter(bool)


@st.composite
def series_coefficients(draw, constant):
    """(order, [c_0, ..., c_order]) with c_0 drawn from constant."""
    order = draw(st.integers(1, 5))
    rest = draw(st.lists(RATIONALS, min_size=order, max_size=order))
    return order, [draw(constant)] + rest


def _series(order, cs):
    return Series(order, {k: c for k, c in enumerate(cs) if c})


def _polynomial(cs):
    return sum(sympy.Rational(c.numerator, c.denominator) * H**k for k, c in enumerate(cs))


def _coefficients(expr, order):
    """The coefficients of h^0 .. h^order of sympy's series of expr."""
    ref = sympy.expand(sympy.series(expr, H, 0, order + 1).removeO())
    out = []
    for k in range(order + 1):
        r = ref.coeff(H, k)
        out.append(Fraction(int(r.p), int(r.q)))
    return out


def _rational_coefficients(s):
    assert all(set(c.terms) <= {0} for c in s.coeffs)
    return [Fraction(c.terms.get(0, 0)) for c in s.coeffs]


@SETTINGS
@given(series_coefficients(UNITS))
def test_inverse_matches_sympy(case):
    order, cs = case
    s = _series(order, cs)
    want = _coefficients(1 / _polynomial(cs), order)
    assert _rational_coefficients(s.inverse()) == want
    assert _rational_coefficients(s.inverse()) == want
    assert s * s.inverse() == Series.one(order)


@SETTINGS
@given(series_coefficients(st.just(Fraction(0))))
def test_exp_matches_sympy(case):
    order, cs = case
    s = _series(order, cs)
    want = _coefficients(sympy.exp(_polynomial(cs)), order)
    assert _rational_coefficients(series_exp(s)) == want


@SETTINGS
@given(series_coefficients(UNITS))
def test_exp_refuses_a_unit_constant_term(case):
    with pytest.raises(NonNilpotent):
        series_exp(_series(*case))


@SETTINGS
@given(series_coefficients(st.just(Fraction(0))))
def test_inverse_refuses_a_zero_constant_term(case):
    with pytest.raises(NonUnit):
        _series(*case).inverse()

"""Scalar tower tests.

Cyclotomic arithmetic is checked against a high-precision numeric oracle;
series operations against an independent dict-of-Fractions model implemented
inline here, with small expected values frozen.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from hopftwist.errors import NonNilpotent, NonUnit, OrderMismatch
from hopftwist.scalars import (
    Cyclotomic,
    ScalarRing,
    Series,
    TauLaurent,
    cyclotomic_polynomial,
    numeric_eval,
    root_of_unity,
    series_exp,
    series_invert,
    theta_ok,
)

KNOWN_PHI = {
    1: {1: 1, 0: -1},
    2: {1: 1, 0: 1},
    3: {2: 1, 1: 1, 0: 1},
    4: {2: 1, 0: 1},
    5: {4: 1, 3: 1, 2: 1, 1: 1, 0: 1},
    6: {2: 1, 1: -1, 0: 1},
    8: {4: 1, 0: 1},
    12: {4: 1, 2: -1, 0: 1},
}


def test_cyclotomic_polynomials():
    for n, poly in KNOWN_PHI.items():
        assert cyclotomic_polynomial(n) == poly


def num(x):
    return numeric_eval(x, 0, 40)


def close(a, b):
    return abs(a - b) < mpmath.mpf(10) ** -25


def test_roots_of_unity_basics():
    assert root_of_unity(1, 3) + root_of_unity(2, 3) == -1
    i = root_of_unity(1, 4)
    assert i * i == -1
    assert i ** 4 == 1
    # conductor is kept as requested, never minimized
    assert root_of_unity(2, 8).conductor == 8
    assert root_of_unity(2, 8) == root_of_unity(1, 4)
    assert root_of_unity(0, 7) == 1
    assert root_of_unity(9, 7) == root_of_unity(2, 7)


def test_mixed_conductor_product():
    assert root_of_unity(1, 4) * root_of_unity(1, 6) == root_of_unity(5, 12)
    s = root_of_unity(1, 4) + root_of_unity(1, 6)
    assert s.conductor == 12


def _random_cyclo(rng):
    n = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12])
    x = Cyclotomic.from_rational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    )
    for _ in range(rng.randint(0, 3)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        x = x + root_of_unity(rng.randrange(n), n) * c
    return x


def test_cyclotomic_arithmetic_matches_numeric_oracle():
    rng = random.Random(20260817)
    with mpmath.workdps(40):
        for _ in range(60):
            a = _random_cyclo(rng)
            b = _random_cyclo(rng)
            assert close(num(a + b), num(a) + num(b))
            assert close(num(a - b), num(a) - num(b))
            assert close(num(a * b), num(a) * num(b))


def test_cyclotomic_inverse_and_division():
    rng = random.Random(7)
    produced = 0
    while produced < 30:
        a = _random_cyclo(rng)
        if a.is_zero():
            continue
        produced += 1
        assert a * a.inverse() == 1
        assert (1 / a) * a == 1
        assert a / a == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0).inverse()


def test_cyclotomic_pow():
    a = root_of_unity(1, 12) + 2
    assert a ** 5 == a * a * a * a * a
    assert a ** -2 == (a * a).inverse()
    assert a ** 0 == 1


def test_zero_and_equality_across_conductors():
    z = root_of_unity(1, 8) - root_of_unity(1, 8)
    assert z.is_zero()
    assert z == 0
    assert z == Cyclotomic.from_rational(0)
    assert root_of_unity(3, 6) == -1
    assert Fraction(1, 2) + root_of_unity(2, 4) == Fraction(-1, 2)


def test_tau_laurent():
    t = TauLaurent.tau()
    assert t * t.inverse() == 1
    u = TauLaurent({2: 2})
    assert u.inverse() == TauLaurent({-2: Fraction(1, 2)})
    assert (3 * t - t) == TauLaurent({1: 2})
    assert t ** -3 == TauLaurent({-3: 1})
    with pytest.raises(NonUnit):
        (1 + t).inverse()
    with pytest.raises(NonUnit):
        TauLaurent({}).inverse()
    # coefficient may be cyclotomic
    w = TauLaurent({1: root_of_unity(1, 4)})
    assert w * w == TauLaurent({2: -1})
    assert w.inverse() * w == 1


def test_series_order_discipline():
    a = Series.hbar(3)
    b = Series.hbar(4)
    with pytest.raises(OrderMismatch):
        a + b
    with pytest.raises(OrderMismatch):
        a == b
    assert a + 1 == Series(3, {0: 1, 1: 1})


# independent model: series as dict degree -> Fraction, truncated at K


def _dmul(a, b, K):
    out = {}
    for i, va in a.items():
        for j, vb in b.items():
            if i + j <= K:
                out[i + j] = out.get(i + j, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _dexp(a, K):
    out = {0: Fraction(1)}
    term = {0: Fraction(1)}
    f = 1
    for k in range(1, K + 1):
        term = _dmul(term, a, K)
        f *= k
        for d, v in term.items():
            out[d] = out.get(d, 0) + Fraction(v, f)
    return {k: v for k, v in out.items() if v}


def _dinv(a, K):
    c0 = a.get(0)
    n = {k: -v / c0 for k, v in a.items() if k > 0}
    out = {0: Fraction(1)}
    term = {0: Fraction(1)}
    for _ in range(K):
        term = _dmul(term, n, K)
        for d, v in term.items():
            out[d] = out.get(d, 0) + v
    return {k: v / c0 for k, v in out.items() if v}


def _series_from_dict(d, K):
    return Series(K, {k: v for k, v in d.items()})


def test_series_invert_against_model():
    rng = random.Random(11)
    for _ in range(25):
        K = rng.randint(1, 6)
        d = {0: Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))}
        for k in range(1, K + 1):
            if rng.random() < 0.6:
                d[k] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        d = {k: v for k, v in d.items() if v or k == 0}
        s = _series_from_dict(d, K)
        inv = series_invert(s)
        assert inv == _series_from_dict(_dinv(d, K), K)
        assert inv * s == 1


def test_series_invert_errors():
    with pytest.raises(NonUnit):
        series_invert(Series.hbar(4))
    with pytest.raises(NonUnit):
        series_invert(Series.zero(3))
    # constant term must be a tau-monomial
    with pytest.raises(NonUnit):
        series_invert(Series(2, {0: 1 + TauLaurent.tau()}))
    # a tau-monomial constant is fine
    s = Series(3, {0: TauLaurent.tau(), 1: 1})
    assert series_invert(s) * s == 1


def test_series_exp_against_model():
    rng = random.Random(13)
    for _ in range(25):
        K = rng.randint(1, 6)
        d = {}
        for k in range(1, K + 1):
            if rng.random() < 0.6:
                d[k] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        s = _series_from_dict(d, K)
        assert series_exp(s) == _series_from_dict(_dexp(d, K), K)


def test_series_exp_frozen_example():
    # exp(h + h^2) at order 4, worked out by the inline model beforehand
    s = Series(4, {1: 1, 2: 1})
    e = series_exp(s)
    assert e == Series(
        4,
        {
            0: 1,
            1: 1,
            2: Fraction(3, 2),
            3: Fraction(7, 6),
            4: Fraction(25, 24),
        },
    )


def test_series_exp_group_law():
    h = Series.hbar(5)
    assert series_exp(h) * series_exp(-h) == 1
    assert series_exp(h) * series_exp(h) == series_exp(2 * h)
    with pytest.raises(NonNilpotent):
        series_exp(Series.one(3))


def test_theta_ok():
    assert theta_ok(Series.hbar(4))
    assert theta_ok(Series.zero(2))
    assert not theta_ok(Series.one(4))
    assert not theta_ok(Fraction(1))


def test_numeric_eval_conventions():
    with mpmath.workdps(30):
        tau = numeric_eval(TauLaurent.tau(), 0, 30)
        assert abs(tau - 2j * mpmath.pi) < mpmath.mpf(10) ** -25
        # i/(2*pi) is -tau^{-1}
        lhs = numeric_eval(-TauLaurent.tau().inverse(), 0, 30)
        assert abs(lhs - 1j / (2 * mpmath.pi)) < mpmath.mpf(10) ** -25
        v = numeric_eval(Series(2, {0: 1, 1: 1}), Fraction(1, 3), 30)
        assert abs(v - Fraction(4, 3)) < mpmath.mpf(10) ** -25
        z = numeric_eval(root_of_unity(1, 5), 0, 30)
        assert abs(z ** 5 - 1) < mpmath.mpf(10) ** -25


def test_scalar_ring_coercion():
    exact = ScalarRing()
    assert exact.coerce(3) == Fraction(3)
    assert isinstance(exact.coerce(root_of_unity(2, 4)), Fraction)
    assert isinstance(exact.coerce(root_of_unity(1, 3)), Cyclotomic)
    ser = ScalarRing(hbar_order=3)
    v = ser.coerce(Fraction(1, 2))
    assert isinstance(v, Series) and v.order == 3
    with pytest.raises(OrderMismatch):
        ser.coerce(Series.one(4))
    with pytest.raises(TypeError):
        exact.coerce(Series.one(2))



def _rand_coords(rng, n):
    return {
        rng.randrange(n): Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
        for _ in range(4)
    }


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_cyclotomic_mul_matches_sympy_remainder(n):
    # differential check: a*b equals rem(a(x) b(x), Phi_n(x)) over QQ
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def poly(coords):
        terms = [sympy.Rational(v.numerator, v.denominator) * x**e for e, v in coords.items()]
        return sympy.Poly(sum(terms), x, domain="QQ")

    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    rng = random.Random(500 + n)
    for _ in range(20):
        ca, cb = _rand_coords(rng, n), _rand_coords(rng, n)
        got = Cyclotomic(n, ca) * Cyclotomic(n, cb)
        rem = sympy.rem(poly(ca) * poly(cb), phi)
        want = {e: Fraction(int(v.p), int(v.q)) for (e,), v in rem.terms() if v}
        assert got.conductor == n
        assert got.coords == want


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_cyclotomic_inverse_matches_sympy_invert(n):
    # differential check: 1/a equals invert(a(x), Phi_n(x)) over QQ
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def poly(coords):
        terms = [sympy.Rational(v.numerator, v.denominator) * x**e for e, v in coords.items()]
        return sympy.Poly(sum(terms), x, domain="QQ")

    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    rng = random.Random(700 + n)
    checked = 0
    for _ in range(20):
        ca = _rand_coords(rng, n)
        a = Cyclotomic(n, ca)
        if not a:
            continue
        got = a.inverse()
        inv = sympy.invert(poly(ca), phi)
        want = {e: Fraction(int(v.p), int(v.q)) for (e,), v in inv.terms() if v}
        assert got.coords == want
        assert a * got == 1
        checked += 1
    assert checked >= 15

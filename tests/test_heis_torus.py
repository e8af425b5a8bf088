"""Deformed Heisenberg-manifold function algebra and Zak-side modules."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopftwist.errors import (
    DegenerateDegrees,
    NotHomogeneous,
    OrderMismatch,
    ZeroDegree,
)
from hopftwist.heis_torus import (
    HeisElement,
    ZakElement,
    _act_once,
    _pair_rows,
    _rows_differ,
    _word_rows,
    _zak_element,
    _zak_row,
    _ZakRow,
    alpha,
    assoc_residual,
    m3_residual,
    star,
    vf_apply,
    zak_act_left,
    zak_act_right,
    zak_pair,
)
from hopftwist.scalars import Series, TauLaurent, root_of_unity, series_exp

TAU = TauLaurent.tau()


# --- independent oracle for the star product --------------------------------
# X acts on a monomial as multiplication by tau(m+ny), Y as d_y.  Both have
# closed-form k-th powers, so the star expansion can be cross-checked without
# iterating the vector fields.


def oracle_xk(f, k):
    out = HeisElement.zero(f.order)
    for (m, n, p, c), s in f.data.items():
        for j in range(k + 1):
            coeff = s * (TauLaurent.tau(k) * (comb(k, j) * m ** (k - j) * n ** j))
            out = out.add(HeisElement(f.order, {(m, n, p + j, c): coeff}))
    return out


def oracle_yk(f, k):
    out = HeisElement.zero(f.order)
    for (m, n, p, c), s in f.data.items():
        for j in range(min(k, p) + 1):
            falling = 1
            for i in range(j):
                falling *= p - i
            coeff = s * comb(k, j) * falling
            if k - j:
                coeff = coeff * (TauLaurent.tau(k - j) * (c ** (k - j)))
            out = out.add(HeisElement(f.order, {(m, n, p - j, c): coeff}))
    return out


def oracle_star(a, b, theta):
    K = a.order
    lam = theta * TauLaurent.tau(-1)
    out = HeisElement.zero(K)
    coef = Series.one(K)
    for k in range(K + 1):
        if k:
            coef = coef * lam * Fraction(1, k)
        if coef.is_zero():
            break
        xa = oracle_xk(a, k)
        yb = oracle_yk(b, k)
        for (m1, n1, p1, c1), s1 in xa.data.items():
            for (m2, n2, p2, c2), s2 in yb.data.items():
                out = out.add(
                    HeisElement(
                        K, {(m1 + m2, n1 + n2, p1 + p2, c1 + c2): s1 * s2 * coef}
                    )
                )
    return out


def rand_heis(order, rng, terms=3, degree=None):
    data = {}
    for _ in range(terms):
        m = rng.randint(-2, 2)
        n = degree if degree is not None else rng.randint(-2, 2)
        p = rng.randint(0, 2)
        c = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        coeff = Series(order, {k: rng.randint(-2, 2) for k in range(order + 1)})
        cur = data.get((m, n, p, c))
        data[(m, n, p, c)] = coeff if cur is None else cur + coeff
    return HeisElement(order, data)


def rand_zak(order, degree, rng, terms=2):
    data = {}
    for _ in range(terms):
        key = (
            rng.randint(-1, 1),
            rng.randint(0, 2),
            Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])),
        )
        coeff = Series(order, {k: rng.randint(-2, 2) for k in range(order + 1)})
        cur = data.get(key)
        data[key] = coeff if cur is None else cur + coeff
    return ZakElement(order, degree, data)


K = 4
U = HeisElement.monomial(K, m=1)
V = HeisElement.monomial(K, 0, 0, 0, 1)
W = HeisElement.monomial(K, 0, 1)
TH = Series.hbar(K)


def test_star_matches_oracle_on_seeded_elements():
    rng = random.Random(20260817)
    theta = Series(K, {1: 1, 2: Fraction(1, 2)})
    for _ in range(8):
        a = rand_heis(K, rng)
        b = rand_heis(K, rng)
        assert star(a, b, theta) == oracle_star(a, b, theta)


# coefficient series of three kinds: rational, rational with tau powers, and
# cyclotomic (a rational times a root of unity of order 3 or 4) with tau powers
KINDS = ("rational", "tau", "cyclotomic")
RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
CYCLOTOMICS = st.builds(
    lambda q, e, n: root_of_unity(e, n) * q,
    RATIONALS,
    st.integers(0, 3),
    st.sampled_from([3, 4]),
)


def series_of(kind, order, lowest=0):
    taus = st.just(0) if kind == "rational" else st.integers(-1, 1)
    values = CYCLOTOMICS if kind == "cyclotomic" else RATIONALS
    terms = st.dictionaries(taus, values, min_size=1, max_size=2)
    degrees = st.integers(lowest, order)
    return st.dictionaries(degrees, terms, min_size=1, max_size=3).map(
        lambda d: Series(order, {v: TauLaurent(t) for v, t in d.items()})
    )


def heis_of(kind, order):
    keys = st.tuples(
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.integers(0, 2),
        st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
    )
    return st.dictionaries(keys, series_of(kind, order), min_size=1, max_size=3).map(
        lambda d: HeisElement(order, d)
    )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.sampled_from(["rational", "cyclotomic"]),
    st.data(),
)
def test_star_matches_oracle_over_every_value_kind(ka, kb, kt, data):
    order = 3
    a = data.draw(heis_of(ka, order))
    b = data.draw(heis_of(kb, order))
    theta = data.draw(series_of(kt, order, lowest=1))
    assert star(a, b, theta) == oracle_star(a, b, theta)


# --- vector fields ----------------------------------------------------------


def test_vector_field_monomial_actions():
    assert vf_apply("T", W) == W.scale(TAU)
    assert vf_apply("T", U).is_zero()
    assert vf_apply("X", U) == U.scale(TAU)
    assert vf_apply("X", W) == HeisElement(K, {(0, 1, 1, 0): TAU})
    assert vf_apply("Y", V) == V.scale(TAU)
    assert vf_apply("Y", HeisElement.monomial(K, 0, 0, 2, 0)) == (
        HeisElement(K, {(0, 0, 1, 0): 2})
    )
    with pytest.raises(ValueError):
        vf_apply("Z", U)


def test_grading_operator_is_a_star_derivation():
    rng = random.Random(7)
    a = rand_heis(K, rng)
    b = rand_heis(K, rng)
    lhs = vf_apply("T", star(a, b, TH))
    rhs = star(vf_apply("T", a), b, TH).add(star(a, vf_apply("T", b), TH))
    assert lhs == rhs


# --- star product -----------------------------------------------------------


def test_uv_commutation_constant():
    uv = star(U, V, TH)
    vu = star(V, U, TH)
    assert vu == HeisElement(K, {(1, 0, 0, 1): 1})
    assert uv == vu.scale(series_exp(TH * TAU))


def test_zero_parameter_is_pointwise():
    z = Series.zero(K)
    a = HeisElement.monomial(K, 1, -1, 2, Fraction(1, 2))
    b = HeisElement.monomial(K, 0, 2, 1, Fraction(1, 3))
    assert star(a, b, z) == HeisElement(
        K, {(1, 1, 3, Fraction(5, 6)): 1}
    )


def test_star_unital():
    one = HeisElement.one(K)
    rng = random.Random(11)
    a = rand_heis(K, rng)
    assert star(a, one, TH) == a
    assert star(one, a, TH) == a


def test_degree_additivity():
    rng = random.Random(13)
    a = rand_heis(K, rng, degree=2)
    b = rand_heis(K, rng, degree=-1)
    prod = star(a, b, TH)
    assert prod.degrees() in ([], [1])


def test_star_order_mismatch():
    with pytest.raises(OrderMismatch):
        star(U, HeisElement.one(3), TH)
    with pytest.raises(OrderMismatch):
        star(U, V, Series.hbar(3))


def test_star_rejects_constant_parameter():
    with pytest.raises(ValueError):
        star(U, V, Series.const(1, K))


# --- parameter action -------------------------------------------------------


def test_alpha_identity_and_geometric_series():
    assert alpha(TH, 0) == TH
    assert alpha(TH, 1) == Series(K, {1: 1, 2: -1, 3: 1, 4: -1})


def test_alpha_composition_at_order_five():
    t = Series(5, {1: 1, 2: Fraction(1, 3)})
    for j in (-2, 1, 3):
        for k in (-1, 2):
            assert alpha(alpha(t, k), j) == alpha(t, j + k)


# --- generalized associativity ----------------------------------------------


def test_plain_associativity_in_degree_zero():
    rng = random.Random(17)
    for _ in range(3):
        a = rand_heis(K, rng, degree=0)
        b = rand_heis(K, rng, degree=0)
        c = rand_heis(K, rng, degree=0)
        assert assoc_residual(a, b, c, TH, TH).is_zero()


@pytest.mark.parametrize("n", [-2, -1, 1, 2])
@pytest.mark.parametrize("theta_terms", [{1: 1}, {1: 1, 2: 1}])
def test_reparametrized_associativity_biconditional(n, theta_terms):
    rng = random.Random(1000 + n)
    theta = Series(K, theta_terms)
    a = rand_heis(K, rng, terms=2)
    b = rand_heis(K, rng, terms=2, degree=n)
    c = rand_heis(K, rng, terms=2)
    good = alpha(theta, n)
    assert assoc_residual(a, b, c, theta, good).is_zero()
    # the matched parameter is the only one: perturbations fail
    for j in (1, 2, K):
        bad = good + Series.hbar(K, power=j)
        assert not assoc_residual(U, HeisElement.monomial(K, 0, n), V, theta, bad).is_zero()


def test_mismatched_parameter_residual_starts_at_second_order():
    res = assoc_residual(U, W, V, TH, TH)
    assert not res.is_zero()
    assert min(s.valuation() for s in res.data.values()) == 2


def test_assoc_residual_requires_homogeneous_middle():
    with pytest.raises(NotHomogeneous):
        assoc_residual(U, U.add(W), V, TH, TH)


def test_bimodule_axioms_on_monomial_side():
    # degree-n elements carry commuting outer multiplications by
    # degree-0 elements, left at the reparametrized angle
    rng = random.Random(23)
    for n in (1, 2):
        thp = alpha(TH, n)
        a = rand_heis(K, rng, terms=2, degree=0)
        b = rand_heis(K, rng, terms=2, degree=0)
        f = rand_heis(K, rng, terms=2, degree=n)
        assert assoc_residual(a, f, b, TH, thp).is_zero()
        assert assoc_residual(a, b, f, thp, thp).is_zero()
        assert assoc_residual(f, a, b, TH, TH).is_zero()


# --- lattice periodicity ----------------------------------------------------


def test_periodicity_membership():
    assert m3_residual(HeisElement.monomial(K, 3, 0, 0, 2)).is_zero()
    assert m3_residual(HeisElement.one(K)).is_zero()
    assert not m3_residual(W).is_zero()
    assert not m3_residual(HeisElement.monomial(K, 0, 0, 0, Fraction(1, 2))).is_zero()


def test_periodicity_residual_is_reported():
    f = HeisElement.monomial(K, 1, 1, 2, Fraction(1, 2))
    res = m3_residual(f)
    assert not res.is_zero()
    assert m3_residual(HeisElement.one(K)).is_zero()


# --- Zak side ---------------------------------------------------------------
# The Series forms of the affine substitution, of one letter of the torus
# actions and of the pairing serve as the oracle for the phase-row code.


def oracle_phase(c):
    c = Fraction(c)
    return root_of_unity(c.numerator % c.denominator, c.denominator)


def oracle_subst(order, p, c, u, r, sigma):
    """{new y-power: Series} of y^p e^{2 pi i c y} at y -> u*y + r + sigma."""
    c = Fraction(c)
    efac = Series.one(order) * oracle_phase(c * r)
    if not sigma.is_zero():
        efac = efac * series_exp(sigma * (TAU * c))
    shift = Series.const(r, order) + sigma
    du = u - Series.one(order)
    freq = [Series.one(order)]
    if c and not du.is_zero():
        w = Series.one(order)
        t = 1
        while True:
            w = w * du * (TAU * c) * Fraction(1, t)
            if w.is_zero():
                break
            freq.append(w)
            t += 1
    out = {}
    for j in range(p + 1):
        base = efac * comb(p, j) * (u ** j) * (shift ** (p - j))
        for t, w in enumerate(freq):
            out[j + t] = out.get(j + t, Series.zero(order)) + base * w
    return out


def oracle_add(order, degree, parts):
    out = ZakElement(order, degree, {})
    for key, s in parts:
        out = out.add(ZakElement(order, degree, {key: s}))
    return out


def oracle_act_once(letter, f, theta, side):
    order, n = f.order, f.degree
    parts = []
    if letter == "U":
        r = -Fraction(1, n)
        sigma = alpha(theta, n) if side == "left" else Series.zero(order)
        for (m, p, c), s in f.data.items():
            for pnew, w in oracle_subst(order, p, c, Series.one(order), r, sigma).items():
                parts.append(((m + 1, pnew, c), s * w))
    else:
        for (m, p, c), s in f.data.items():
            base = s * oracle_phase(Fraction(-m, n))
            w = Series.one(order)
            t = 0
            while not w.is_zero():
                parts.append(((m, p + t, c + 1), base * w))
                if side == "left":
                    break
                t += 1
                w = w * theta * (TAU * n) * Fraction(1, t)
    return oracle_add(order, n, parts)


def oracle_pair(f1, f2, theta):
    order = f1.order
    n, p = f1.degree, f2.degree
    one = Series.one(order)
    parts = []
    for (j, p1, c1), s1 in f1.data.items():
        for (k, p2, c2), s2 in f2.data.items():
            num = j * p - k * n
            r1 = Fraction(num, n * (n + p))
            q = Fraction(num, p * (n + p))
            left = oracle_subst(order, p1, c1, one, r1, Series.zero(order))
            right = oracle_subst(order, p2, c2, one + theta * n, -q, theta * (p * q))
            for pa, wa in left.items():
                for pb, wb in right.items():
                    parts.append(((j + k, pa + pb, c1 + c2), s1 * s2 * wa * wb))
    return oracle_add(order, n + p, parts)


def zak_of(kind, order, degree):
    keys = st.tuples(
        st.integers(-2, 2),
        st.integers(0, 3),
        st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
    )
    return st.dictionaries(keys, series_of(kind, order), min_size=1, max_size=3).map(
        lambda d: ZakElement(order, degree, d)
    )


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.integers(2, 5),
    # from degree 3 on, e^{-2 pi i m/n} differs from e^{2 pi i m/n}
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    st.data(),
)
def test_zak_side_matches_the_series_oracle(kf, kg, kt, order, n, p, data):
    assume(n + p != 0)
    f = data.draw(zak_of(kf, order, n))
    g = data.draw(zak_of(kg, order, p))
    theta = data.draw(series_of(kt, order, lowest=1))
    for letter in "UV":
        for side in ("left", "right"):
            assert _act_once(letter, f, theta, side) == oracle_act_once(
                letter, f, theta, side
            ), (letter, side)
    assert zak_pair(f, g, theta) == oracle_pair(f, g, theta)


def test_zak_zero_degree_rejected():
    with pytest.raises(ZeroDegree):
        ZakElement.monomial(K, 0)


def test_left_action_commutation():
    for n in (1, 2):
        rng = random.Random(50 + n)
        f = rand_zak(K, n, rng)
        lhs = zak_act_left("UV", f, TH)
        rhs = zak_act_left("VU", f, TH)
        assert lhs == rhs.scale(series_exp(alpha(TH, n) * TAU))


def test_right_action_commutation():
    for n in (1, 2):
        rng = random.Random(60 + n)
        f = rand_zak(K, n, rng)
        lhs = zak_act_right("UV", f, TH)
        rhs = zak_act_right("VU", f, TH)
        assert lhs == rhs.scale(series_exp(TH * TAU))


def test_empty_word_is_identity():
    f = rand_zak(K, 1, random.Random(3))
    assert zak_act_left("", f, TH) == f
    assert zak_act_right("", f, TH) == f
    with pytest.raises(ValueError):
        zak_act_left("W", f, TH)


def test_pairing_degenerate_degrees():
    f1 = ZakElement.monomial(K, 1)
    with pytest.raises(DegenerateDegrees):
        zak_pair(f1, ZakElement.monomial(K, -1), TH)


def test_pairing_classical_limit():
    z = Series.zero(3)
    g1 = ZakElement.monomial(3, 1, m=0, p=0, c=0)
    g2 = ZakElement.monomial(3, 1, m=1, p=0, c=0)
    pr = zak_pair(g1, g2, z)
    assert pr.degree == 2
    # slots add; the rational shifts are exact
    assert set(k[0] for k in pr.data) == {1}


def test_pairing_balanced_over_middle_algebra():
    # right action at theta on the first factor matches the left action
    # on the second factor taken at the inverse-reparametrized angle
    K3 = 3
    t3 = Series.hbar(K3)
    rng = random.Random(29)
    h1 = rand_zak(K3, 1, rng)
    h2 = rand_zak(K3, 1, rng)
    that = alpha(t3, -1)
    for w in ("U", "V", "UV", "VU"):
        L = zak_pair(zak_act_right(w, h1, t3), h2, t3)
        R = zak_pair(h1, zak_act_left(w, h2, that), t3)
        assert L == R, w


def test_pairing_outer_module_consistency():
    K3 = 3
    t3 = Series.hbar(K3)
    rng = random.Random(31)
    h1 = rand_zak(K3, 1, rng)
    h2 = rand_zak(K3, 1, rng)
    that = alpha(t3, -1)
    for w in ("U", "V", "UV"):
        assert zak_act_left(w, zak_pair(h1, h2, t3), that) == zak_pair(
            zak_act_left(w, h1, t3), h2, t3
        )
        assert zak_act_right(w, zak_pair(h1, h2, t3), that) == zak_pair(
            h1, zak_act_right(w, h2, that), t3
        )


# --- the row core against values ---------------------------------------------
# Frequencies with denominators 2 and 3 and coefficients in Q(z_3) and Q(z_4)
# make the rows that meet differ in both their frequency denominator D and
# their conductor N, so that every lift scales keys and exponents.


def cyclotomic_theta(order):
    return Series(order, {1: root_of_unity(1, 4), 2: Fraction(1, 3)})


@pytest.mark.parametrize("order", [2, 3, 4])
def test_assoc_residual_matches_the_value_difference(order):
    rng = random.Random(4500 + order)
    theta = cyclotomic_theta(order)
    seen_nonzero = False
    for n in (-1, 1, 2):
        a = rand_heis(order, rng, terms=2).add(
            HeisElement.monomial(order, 1, 0, 1, Fraction(1, 2))
        )
        b = rand_heis(order, rng, terms=2, degree=n).add(
            HeisElement.monomial(order, 0, n, 0, Fraction(1, 3), coeff=root_of_unity(1, 3))
        )
        c = rand_heis(order, rng, terms=2)
        good = alpha(theta, n)
        for theta_p in (good, good + Series.hbar(order, power=order)):
            want = star(star(a, b, theta_p), c, theta).sub(
                star(a, star(b, c, theta), theta_p)
            )
            got = assoc_residual(a, b, c, theta, theta_p)
            assert got == want, (n, theta_p)
            assert want.is_zero() == (theta_p is good)
            seen_nonzero |= not want.is_zero()
    assert seen_nonzero


def oracle_word(word, f, theta, side):
    """The action of a word through the Series oracle, letter by letter."""
    if side == "left":
        word = word[::-1]
    for letter in word:
        f = oracle_act_once(letter, f, theta, side)
    return f


def zak_factors(order):
    """h1 of degree 1 with frequency denominator 2 and a coefficient in
    Q(z_3), h2 of degree 2 with frequency denominator 3 and rational
    coefficients."""
    rng = random.Random(4700 + order)

    def coeff():
        return Series(order, {k: rng.randint(-2, 2) for k in range(order + 1)})

    h1 = ZakElement(order, 1, {
        (0, 0, Fraction(1, 2)): coeff(),
        (1, 1, Fraction(-1, 2)): coeff() * root_of_unity(1, 3),
        (-1, 2, 0): coeff(),
    })
    h2 = ZakElement(order, 2, {
        (1, 1, Fraction(1, 3)): coeff(),
        (0, 0, Fraction(-2, 3)): coeff(),
    })
    return h1, h2


def assert_rows_hold(z, want):
    assert _zak_element(want, z) == want
    assert not _rows_differ(z, _zak_row(want))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("word", ["U", "V", "UV", "VU"])
def test_actions_and_pairings_on_rows_match_the_series_oracle(word, side):
    order = 3
    theta = cyclotomic_theta(order)
    that = alpha(theta, -1)
    h1, h2 = zak_factors(order)
    z1, z2 = _zak_row(h1), _zak_row(h2)
    assert (z1.D, z1.N, z2.D, z2.N) == (2, 3, 3, 1)
    pair = oracle_pair(h1, h2, theta)
    # act after pair
    assert_rows_hold(
        _word_rows(word, _pair_rows(z1, z2, theta), that, side),
        oracle_word(word, pair, that, side),
    )
    # pair after act, on either factor
    assert_rows_hold(
        _pair_rows(_word_rows(word, z1, theta, side), z2, theta),
        oracle_pair(oracle_word(word, h1, theta, side), h2, theta),
    )
    assert_rows_hold(
        _pair_rows(z1, _word_rows(word, z2, that, side), theta),
        oracle_pair(h1, oracle_word(word, h2, that, side), theta),
    )
    # the value-level functions agree
    act = zak_act_left if side == "left" else zak_act_right
    assert act(word, zak_pair(h1, h2, theta), that) == oracle_word(word, pair, that, side)


def test_rows_differ_reduces_and_lifts():
    # z_3^2 = -1 - z_3: one value on exponent 2 and on the reduced basis,
    # at slot 0, y-power 1 and frequency 1/2 (keyed 1 at D = 2)
    key = (0, 1, 1)
    high = _ZakRow(K, 1, ({(key, 0, 0, 2): 1}, 1), 2, 3)
    low = _ZakRow(K, 1, ({(key, 0, 0, 0): -1, (key, 0, 0, 1): -1}, 1), 2, 3)
    assert not _rows_differ(high, low)
    # the same value at D = 6 and N = 12: the key is 1/2 * 6, z_3 is z_12^4
    wide = _ZakRow(K, 1, ({((0, 1, 3), 0, 0, 8): 1}, 1), 6, 12)
    assert not _rows_differ(high, wide)
    assert not _rows_differ(wide, low)
    # a different exponent, frequency, denominator or degree differs
    assert _rows_differ(high, _ZakRow(K, 1, ({(key, 0, 0, 1): 1}, 1), 2, 3))
    assert _rows_differ(wide, _ZakRow(K, 1, ({((0, 1, 2), 0, 0, 8): 1}, 1), 6, 12))
    assert _rows_differ(high, _ZakRow(K, 1, ({(key, 0, 0, 2): 1}, 2), 2, 3))
    assert _rows_differ(high, _ZakRow(K, 2, ({(key, 0, 0, 2): 1}, 1), 2, 3))

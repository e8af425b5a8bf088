"""The phase pieces of LegTensor against plain scalar arithmetic.

A tensor keeps its values as one canonical (numerators, denominator) pair
per phase: hbar degree, tau power and exponent of z_N at one conductor N.
Every operation on such pieces is checked here against the same operation
done in Series arithmetic on the values, leg by leg from the host's own
structure constants, on rational values and on values with roots of unity
and powers of tau; and the views built from the pieces (entries, data,
JSON) against the eager build of the same values.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import io_json
from hopftwist.constructors import (
    dual_group_hopf,
    elementary_abelian_2,
    group_algebra,
    symmetric_3,
)
from hopftwist.group_cohomology import GroupCochain, group_coboundary, twisted_group_algebra
from hopftwist.multilinear import HopfPresentation, LegTensor, tensor_invert, with_series_ring
from hopftwist.scalars import Cyclotomic, ScalarRing, Series, TauLaurent

S3 = symmetric_3()
Z22 = elementary_abelian_2(2)
KS3 = group_algebra(S3)


def _kf_s3(K):
    """k_F[S3] (F = df, structure constants 2/3, -5/2, ...) with the
    group-like coproduct of k[S3], over order-K series: the product has no
    integer table, the coproduct and counit do."""
    values = [Fraction(1), Fraction(2, 3), Fraction(-5, 2), Fraction(3, 4),
              Fraction(-1, 6), Fraction(7, 5)]
    f = GroupCochain(S3, 1, {(g,): values[g] for g in range(S3.order)})
    kf = twisted_group_algebra(S3, group_coboundary(f))
    return HopfPresentation(
        kf.dim, kf.labels, ScalarRing(hbar_order=K), kf.mult, kf.unit,
        KS3.coproduct, KS3.counit, name="kF[S3]-h%d" % K,
    )


ORDERS = (1, 2, 3, 4)
HOSTS = {}
for K in ORDERS:
    HOSTS["k[S3]", K] = with_series_ring(KS3, K)
    HOSTS["k[Z2^2]", K] = with_series_ring(group_algebra(Z22), K)
    HOSTS["kF[S3]", K] = _kf_s3(K)
    HOSTS["dual[Z2^2]", K] = with_series_ring(dual_group_hopf(Z22), K)

SETTINGS = settings(max_examples=40, deadline=None)
COEFFS = st.sampled_from([Fraction(n, d) for n in (-3, -2, -1, 1, 2, 5) for d in (1, 2, 3, 6)])


def series_values(K, degrees=None):
    degrees = range(K + 1) if degrees is None else degrees
    return st.dictionaries(st.sampled_from(degrees), COEFFS, min_size=1, max_size=3).map(
        lambda d: Series(K, d)
    )


Z3 = Cyclotomic(3, {1: 1})
Z4 = Cyclotomic(4, {1: 1})
TAU = TauLaurent.tau()
# coefficients on roots of unity of orders 3, 4 and 12 and on powers of tau
PHASES = [1, Z3, Z3 * Z3, Z4, Z3 * Z4, 1 + Z4, TAU, TAU * TAU * Z3, TauLaurent.tau(-1) * Z4]


def phase_values(K):
    """Series whose coefficients carry roots of unity and powers of tau,
    each with a term on z3 and one on z4: a tensor of them lies at
    conductor 12."""
    coeffs = st.tuples(COEFFS, st.sampled_from(PHASES)).map(lambda cp: cp[1] * cp[0])
    terms = st.dictionaries(st.integers(0, K), coeffs, max_size=2)
    degree = st.integers(0, K)
    return st.builds(
        lambda d, i, j, q: Series(K, d) + Series(K, {i: Z3 * q}) + Series(K, {j: Z4}),
        terms, degree, degree, COEFFS,
    ).filter(bool)


def digit_dicts(host, arity, values):
    keys = st.tuples(*[st.integers(0, host.dim - 1)] * arity)
    return st.dictionaries(keys, values, max_size=5)


def stored(host, arity, values):
    """A tensor holding pieces only, made from a dict of values."""
    return LegTensor._of_rows(host, arity, *LegTensor(host, arity, values)._phases())


# ---------------------------------------------------------------------------
# plain Series arithmetic on {digit tuple: value}


def _clean(d):
    return {k: v for k, v in d.items() if v}


def _acc(out, key, v):
    out[key] = out[key] + v if key in out else v


def ref_mul(host, a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            terms = [((), va * vb)]
            for x, y in zip(ka, kb):
                terms = [
                    (key + (k,), c * w)
                    for key, c in terms
                    for k, w in host.basis_mul(x, y).items()
                ]
            for key, c in terms:
                _acc(out, key, c)
    return _clean(out)


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        _acc(out, k, v * sign)
    return _clean(out)


def ref_coproduct(host, a, leg):
    out = {}
    for key, c in a.items():
        for (j, k), w in host.basis_coproduct(key[leg]).items():
            _acc(out, key[:leg] + (j, k) + key[leg + 1:], c * w)
    return _clean(out)


def ref_counit(host, a, leg):
    out = {}
    for key, c in a.items():
        e = host.counit[key[leg]]
        if e:
            _acc(out, key[:leg] + key[leg + 1:], c * e)
    return _clean(out)


def ref_embed(host, a, positions, arity_out):
    missing = [p for p in range(arity_out) if p not in positions]
    support = [(k, v) for k, v in enumerate(host.unit) if v]
    out = {}
    for key, c in a.items():
        for fill in itertools.product(support, repeat=len(missing)):
            digits = [None] * arity_out
            for p, d in zip(positions, key):
                digits[p] = d
            v = c
            for p, (d, w) in zip(missing, fill):
                digits[p] = d
                v = v * w
            _acc(out, tuple(digits), v)
    return _clean(out)


def agrees(t, want, rows=True):
    """t holds the values of want ({digits: value}); with rows, t holds
    them as rows only until its data is read."""
    host, arity = t.host, t.arity
    if rows:
        assert t._data is None
    assert t.term_count() == len(want)
    assert t.is_zero() == (not want)
    twin = LegTensor(host, arity, want)
    assert t.eq(twin) and twin.eq(t)
    assert dict(t.entries()) == want
    assert [k for k, _ in t.entries()] == sorted(want)
    assert len(t.data) == t.term_count()


# ---------------------------------------------------------------------------
# differential tests


@st.composite
def cases(draw, max_arity=2):
    """(host, K, arity, values): values draws rational series, or series
    with roots of unity and powers of tau."""
    name = draw(st.sampled_from(["k[S3]", "k[Z2^2]", "kF[S3]", "dual[Z2^2]"]))
    K = draw(st.sampled_from(ORDERS))
    host = HOSTS[name, K]
    arity = draw(st.integers(1, max_arity))
    values = draw(st.sampled_from([series_values, phase_values]))(K)
    return host, K, arity, values


@SETTINGS
@given(cases(), st.data())
def test_binary_row_operations_match_series_arithmetic(case, data):
    host, K, arity, values = case
    a = data.draw(digit_dicts(host, arity, values))
    b = data.draw(digit_dicts(host, arity, values))
    ta, tb = stored(host, arity, a), stored(host, arity, b)
    a, b = _clean(a), _clean(b)
    prod = ta.mul(tb)
    # kF[S3] multiplies through phase_convolve, the others through
    # piece_product; each product is held as pieces until read
    agrees(prod, ref_mul(host, a, b))
    agrees(ta.add(tb), ref_add(a, b))
    agrees(ta.sub(tb), ref_add(a, b, -1))
    agrees(ta.neg(), ref_add({}, a, -1))
    assert ta.eq(tb) == (not ref_add(a, b, -1))


@SETTINGS
@given(cases(max_arity=3), st.data())
def test_unary_row_operations_match_series_arithmetic(case, data):
    host, K, arity, values = case
    a = data.draw(digit_dicts(host, arity, values))
    t = stored(host, arity, a)
    a = _clean(a)
    h = Series.hbar(K)
    agrees(t.scale(h), {k: v * h for k, v in a.items() if v * h})
    agrees(t.scale(h * -2), {k: v * h * -2 for k, v in a.items() if v * h})
    third = Series(K, {0: Fraction(-1, 3), K: 2})
    agrees(t.scale(third), _clean({k: v * third for k, v in a.items()}))
    root = Series(K, {0: Z4, K: TAU})
    agrees(t.scale(root), _clean({k: v * root for k, v in a.items()}))
    leg = data.draw(st.integers(0, arity - 1))
    agrees(t.coproduct_leg(leg), ref_coproduct(host, a, leg))
    agrees(t.counit_leg(leg), ref_counit(host, a, leg))
    arity_out = data.draw(st.integers(arity, arity + 2))
    positions = tuple(sorted(data.draw(st.permutations(range(arity_out)))[:arity]))
    agrees(t.leg_embed(positions, arity_out), ref_embed(host, a, positions, arity_out))


@SETTINGS
@given(cases(), st.data())
def test_row_operand_with_tau_operand_takes_generic_path(case, data):
    host, K, arity, values = case
    tau = Series(K, {0: 1, 1: TauLaurent.tau()})
    a = _clean(data.draw(digit_dicts(host, arity, values)))
    b = data.draw(digit_dicts(host, arity, st.one_of(series_values(K), st.just(tau))))
    b[(0,) * arity] = tau
    ta, tb = stored(host, arity, a), LegTensor(host, arity, b)
    assert (1, 1, 0) in tb.rows()
    agrees(ta.mul(tb), ref_mul(host, a, b), rows=False)
    agrees(tb.mul(ta), ref_mul(host, b, a), rows=False)
    agrees(ta.add(tb), ref_add(a, b), rows=False)
    agrees(tb.sub(ta), ref_add(b, a, -1), rows=False)
    assert not ta.eq(tb) and not tb.eq(ta)


def test_scaling_by_z3_cubed_gives_back_the_conductor():
    """The product with z3 lies at lcm(N, 3); z3^3 = 1 brings the pieces
    back to N, Q(z_4) at 12 included (its exponents are multiples of 3)."""
    host = HOSTS["k[S3]", 1]
    z3 = Series(1, {0: Z3})
    for value, N in [(Fraction(2, 3), 1), (Z3, 3), (Z4, 4), (1 + Z4, 4), (Z3 * Z4, 12)]:
        a = {(0,): Series(1, {0: value})}
        ta = stored(host, 1, a)
        once = ta.scale(z3)
        back = once.scale(z3).scale(z3)
        agrees(back, a)
        assert ta._phases()[1] == back._phases()[1] == N
        assert once._phases()[1] == (3 if N == 1 else 12 if N == 4 else N)
        assert back._phases() == ta._phases()


@SETTINGS
@given(cases(), st.data())
def test_cancellation_leaves_empty_rows(case, data):
    host, K, arity, values = case
    a = _clean(data.draw(digit_dicts(host, arity, values)))
    ta = stored(host, arity, a)
    agrees(ta.sub(ta), {})
    agrees(ta.add(ta.neg()), {})
    # 1 + z3 + z3^2 = 0, and z3^3 = 1 leaves the conductor where it was
    z3 = Series(K, {0: Z3})
    agrees(ta.add(ta.scale(z3)).add(ta.scale(z3).scale(z3)), {})
    back = ta.scale(z3).scale(z3).scale(z3)
    agrees(back, a)
    assert back._phases()[1] == ta._phases()[1]
    # remove every degree but d: the other degrees are empty rows
    d = data.draw(st.integers(0, K))
    rest = {k: Series(K, {v: -c for v, c in enumerate(s.coeffs) if v != d and c})
            for k, s in a.items()}
    only = ta.add(stored(host, arity, rest))
    want = _clean({k: Series(K, {d: s.coeffs[d]}) for k, s in a.items()})
    agrees(only, want)
    assert all(v == d for v, _t, _e in only.rows())
    # a product whose degrees add up past K truncates to nothing
    top = stored(host, arity, {k: Series(K, {K: c}) for k, c in
                               data.draw(digit_dicts(host, arity, COEFFS)).items()})
    hi = stored(host, arity, {k: Series(K, {1: c}) for k, c in
                              data.draw(digit_dicts(host, arity, COEFFS)).items()})
    agrees(top.mul(hi), {})


# ---------------------------------------------------------------------------
# edge cases of the stored layout


H2 = HOSTS["k[S3]", 2]


def test_two_routes_with_different_denominators_are_equal():
    x = LegTensor(H2, 2, {(1, 2): Series(2, {0: Fraction(1, 3), 2: 2}), (0, 4): Fraction(5, 6)})
    doubled = x.scale(2)
    assert doubled.rows()[0, 0, 0][1] == 3  # 2/3 and 5/3 over 3
    halved = doubled.scale(Fraction(1, 2))
    assert halved.eq(x) and halved == x and x == halved
    via_sum = x.add(x).scale(Fraction(1, 2))
    assert via_sum == x and via_sum.rows() == halved.rows()
    assert x.scale(Fraction(2, 3)) == x.scale(2).scale(Fraction(1, 3))


def test_row_tensor_equals_its_dict_twin():
    a = LegTensor(H2, 2, {(1, 2): Series(2, {1: Fraction(1, 2)}), (3, 3): 2})
    b = LegTensor(H2, 2, {(2, 1): Series(2, {0: 3, 2: Fraction(-1, 4)})})
    p = a.mul(b)
    assert p._data is None
    m = S3.mul
    twin = LegTensor(H2, 2, {(m(1, 2), m(2, 1)): Series(2, {1: Fraction(3, 2)}),
                             (m(3, 2), m(3, 1)): Series(2, {0: 6, 2: Fraction(-1, 2)})})
    assert p == twin and twin == p
    assert p != LegTensor.unit(H2, 2)


def test_materialized_data_is_the_eager_build():
    exact = LegTensor(KS3, 2, {(1, 2): Fraction(3, 4), (0, 0): 2}).scale(Fraction(2, 3))
    assert exact._data is None
    assert exact.data == {8: Fraction(1, 2), 0: Fraction(4, 3)}
    assert all(type(v) is Fraction for v in exact.data.values())

    x = LegTensor(H2, 2, {(1, 2): Series(2, {0: Fraction(1, 3), 2: 2}), (0, 4): 5})
    t = x.scale(Series.hbar(2))
    assert t._data is None
    for key, v in t.data.items():
        eager = Series(2, {d: c.terms[0] for d, c in enumerate(v.coeffs) if c})
        assert type(v) is Series and v.order == 2 and len(v.coeffs) == 3
        assert [type(c) for c in v.coeffs] == [TauLaurent] * 3
        assert [c.terms for c in v.coeffs] == [c.terms for c in eager.coeffs]
        for c in v.coeffs:
            assert set(c.terms) <= {0}
            assert all(type(q) is Fraction and q for q in c.terms.values())
    assert t.data[encode(H2, (1, 2))] == Series(2, {1: Fraction(1, 3)})
    assert t.data[encode(H2, (0, 4))] == Series(2, {1: 5})


def encode(host, digits):
    key = 0
    for d in digits:
        key = key * host.dim + d
    return key


def test_json_dump_of_row_tensor_matches_dict_twin():
    for host in (KS3, H2):
        a = LegTensor(host, 2, {(1, 2): Fraction(1, 2), (3, 0): 3})
        t = a.mul(a).add(LegTensor.unit(host, 2))
        assert t._data is None
        twin = LegTensor(host, 2, {k: v for k, v in t.entries()})
        assert io_json.dump_json(io_json.leg_tensor_to_dict(t)) == io_json.dump_json(
            io_json.leg_tensor_to_dict(twin)
        )


def test_data_length_is_term_count():
    a = LegTensor(H2, 2, {(1, 2): Series(2, {0: 1, 2: 3}), (4, 4): Series(2, {1: 2})})
    t = a.mul(a.coproduct_leg(0).counit_leg(1))
    n = t.term_count()
    assert t._data is None
    assert len(t.data) == n


def _no_data(t):
    raise AssertionError("an operation read LegTensor.data")


def test_operations_on_roots_of_unity_and_tau_never_read_data(monkeypatch):
    # the values stay in the tensors' dicts; every operation, the inverse
    # included, works on the phase pieces made from them
    exact = [
        LegTensor(KS3, 1, {(0,): 9, (1,): Z3, (2,): Z4 * 2, (4,): 1 + Z3}),
        LegTensor(KS3, 2, {(0, 0): 7, (1, 2): Z3 * Z4, (3, 5): Fraction(-1, 2)}),
    ]
    series = [
        LegTensor(H2, 1, {(0,): Series(2, {0: 5, 1: TAU, 2: Z3}), (3,): Series(2, {0: Z4})}),
        LegTensor(H2, 2, {(0, 0): Series(2, {0: 3, 2: TAU * Z4}), (1, 4): Series(2, {1: Z3})}),
    ]
    monkeypatch.setattr(LegTensor, "data", property(_no_data))
    for t in exact + series:
        host, arity = t.host, t.arity
        unit = LegTensor.unit(host, arity)
        u = t.mul(t).add(unit).sub(t.scale(Z3)).neg()
        u = u.scale(Series(2, {0: Z4, 1: TAU}) if host is H2 else Z4)
        assert not u.eq(t) and u.eq(u.copy()) and not u.is_zero() and u.term_count()
        assert t.coproduct_leg(0).counit_leg(1).eq(t)
        assert t.leg_embed(range(arity), arity + 1).counit_leg(arity).eq(t)
        inverse = tensor_invert(t)
        assert t.mul(inverse).eq(unit) and inverse.mul(t).eq(unit)
        assert t.mul(inverse).sub(unit).is_zero()
    with pytest.raises(AssertionError, match="read LegTensor.data"):
        u.entries()

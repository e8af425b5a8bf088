"""Integer-numerator tensor products against the generic kernel.

LegTensor.mul, the valuation pieces of series products and the exact
inverse convolve integer numerators over one common denominator; the
generic kernel on Fraction and Series scalars is the reference.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import multilinear as kernel
from hopftwist.constructors import group_algebra, pauli_8, symmetric_3
from hopftwist.group_cohomology import (
    GroupCochain,
    group_coboundary,
    twisted_group_algebra,
)
from hopftwist.hopf_cochain import HopfCochain, counital_projection, twist
from hopftwist.multilinear import (
    HopfPresentation,
    LegTensor,
    tensor_invert,
    with_series_ring,
)
from hopftwist.scalars import Cyclotomic, ScalarRing, Series, TauLaurent

S3 = symmetric_3()
KS3 = group_algebra(S3)
KP8 = group_algebra(pauli_8())


def _twisted_s3():
    """k_F[S3] with F = df for a normalized 1-cochain f (f(e) = 1), so the
    structure constants are fractions other than 1."""
    values = [Fraction(1), Fraction(2, 3), Fraction(-5, 2), Fraction(3, 4),
              Fraction(-1, 6), Fraction(7, 5)]
    f = GroupCochain(S3, 1, {(g,): values[g] for g in range(S3.order)})
    return twisted_group_algebra(S3, group_coboundary(f))


KF = _twisted_s3()

SETTINGS = settings(max_examples=25, deadline=None)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


def tensors(host, arity, values=RATIONALS):
    keys = st.tuples(*[st.integers(0, host.dim - 1)] * arity)
    return st.dictionaries(keys, values, max_size=6).map(
        lambda d: LegTensor(host, arity, d)
    )


def generic(a, b):
    host = a.host
    return kernel.tensor_convolve(
        a.data, b.data, host.dim, a.arity, host.base_table()
    )


@st.composite
def rational_pairs(draw, hosts):
    host = draw(st.sampled_from(hosts))
    arity = draw(st.integers(1, 3))
    return draw(tensors(host, arity)), draw(tensors(host, arity))


@SETTINGS
@given(rational_pairs([KS3, KP8]))
def test_integer_path_matches_generic_kernel(pair):
    a, b = pair
    got = a.mul(b).data
    assert got == generic(a, b)
    assert all(type(v) is Fraction and v for v in got.values())


def test_twisted_host_has_a_denominator():
    assert KF.rational_table()[1] > 1
    assert not KF.unit_coeff_table()


@SETTINGS
@given(rational_pairs([KF]))
def test_integer_path_matches_generic_kernel_over_fractional_table(pair):
    # the product's denominator carries the table's denominator once per leg
    a, b = pair
    assert a.mul(b).data == generic(a, b)


@SETTINGS
@given(st.integers(1, 2), st.data())
def test_exact_inverse_over_fractional_table(arity, data):
    t = data.draw(tensors(KF, arity, st.integers(-1, 1).map(Fraction)))
    t = t.add(LegTensor.unit(KF, arity).scale(7))
    inv = tensor_invert(t)
    unit = LegTensor.unit(KF, arity)
    assert t.mul(inv).eq(unit) and inv.mul(t).eq(unit)
    assert LegTensor(KF, arity, generic(t, inv)).eq(unit)


K = 2
KS3H = with_series_ring(KS3, K)


def series_values(max_degree=K):
    terms = st.dictionaries(st.integers(0, max_degree), RATIONALS, min_size=1, max_size=2)
    return terms.map(lambda d: Series(K, d)).filter(bool)


@SETTINGS
@given(st.integers(1, 2), st.data())
def test_series_product_matches_generic_and_stores_no_zeros(arity, data):
    # high hbar degrees on both sides: most products truncate to zero at K
    a = data.draw(tensors(KS3H, arity, series_values()))
    b = data.draw(tensors(KS3H, arity, series_values()))
    got = a.mul(b).data
    assert got == generic(a, b)
    assert all(v for v in got.values())


def test_series_product_truncating_to_zero_is_empty():
    h2 = Series.hbar(K, power=2)
    a = LegTensor(KS3H, 2, {(1, 2): h2, (3, 0): h2 * 3})
    b = LegTensor(KS3H, 2, {(2, 2): Series.hbar(K), (0, 4): h2})
    assert a.mul(b).data == {}


def test_leg_calculus_drops_coefficients_truncating_to_zero():
    # coproduct and counit coefficient h: (h^K) * h is zero at order K
    ring = ScalarRing(hbar_order=K)
    h = Series.hbar(K)
    H = HopfPresentation(
        2, ["a", "b"], ring,
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}},
        [1, 0],
        {0: {(0, 0): 1}, 1: {(1, 1): h, (0, 1): 1}},
        [1, h],
    )
    t = LegTensor(H, 2, {(1, 1): Series.hbar(K, power=K), (0, 1): h})
    d = t.coproduct_leg(1)
    assert d.entries() == [((0, 0, 1), h), ((0, 1, 1), h * h), ((1, 0, 1), Series.hbar(K, power=K))]
    e = t.counit_leg(1)
    assert e.entries() == [((0,), h * h)]
    assert all(v for v in d.data.values()) and all(v for v in e.data.values())


def _twisted_series_host():
    """k[S3] over order-2 series, coproduct conjugated by F = 1 + h P with
    a counital P of fractional coefficients."""
    P = counital_projection(
        LegTensor(KS3H, 2, {(1, 2): Fraction(2, 3), (3, 4): Fraction(-1, 2), (2, 5): Fraction(5, 7)})
    )
    F = LegTensor.unit(KS3H, 2).add(P.scale(Series.hbar(K)))
    return twist(KS3H, HopfCochain(KS3H, 2, F)).twisted


TWISTED = _twisted_series_host()


def coproduct_leg_reference(t, leg):
    out = {}
    for digits, c in t.entries():
        for (j, k), w in t.host.basis_coproduct(digits[leg]).items():
            key = digits[:leg] + (j, k) + digits[leg + 1:]
            out[key] = c * w if key not in out else out[key] + c * w
    return {k: v for k, v in out.items() if v}


@SETTINGS
@given(st.integers(1, 2), st.data())
def test_coproduct_leg_over_twisted_host_matches_series_arithmetic(arity, data):
    assert any(den > 1 for _cells, den in TWISTED.coproduct_pieces())
    tau_series = Series(K, {1: TauLaurent.tau()})
    values = st.one_of(series_values(), st.just(tau_series))
    t = data.draw(tensors(TWISTED, arity, values))
    leg = data.draw(st.integers(0, arity - 1))
    d = t.coproduct_leg(leg)
    assert dict(d.entries()) == coproduct_leg_reference(t, leg)
    assert all(v for v in d.data.values())


def _cyclo_values():
    z3 = Cyclotomic(3, {1: 1})
    return st.one_of(RATIONALS, RATIONALS.map(lambda q: z3 * q))


@SETTINGS
@given(st.integers(1, 2), st.data())
def test_cyclotomic_operands_keep_the_generic_path(arity, data):
    a = data.draw(tensors(KS3, arity, _cyclo_values()))
    b = data.draw(tensors(KS3, arity, _cyclo_values()))
    assert a.mul(b).data == generic(a, b)


@SETTINGS
@given(st.data())
def test_tau_and_cyclotomic_series_keep_the_generic_path(data):
    tau = TauLaurent.tau()
    z4 = Cyclotomic(4, {1: 1})
    coeffs = st.sampled_from([Series(K, {0: 1, 1: tau}), Series(K, {1: z4}), Series(K, {0: 2})])
    a = data.draw(tensors(KS3H, 2, coeffs))
    b = data.draw(tensors(KS3H, 2, series_values()))
    assert a.mul(b).data == generic(a, b)
    assert b.mul(a).data == generic(b, a)

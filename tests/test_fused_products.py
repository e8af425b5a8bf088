"""The per-output-phase products of LegTensor against value arithmetic.

LegTensor.mul over a pointwise or permutation table, leg_embed,
coproduct_leg and counit_leg group the pairs of phases (hbar degree, tau
power, exponent of z_N) of their operands by the phase they land on, and
sum every pair of one output phase into one integer accumulator over the
lcm of the pairs' denominators.  Here each is checked, at arity 1 to 4,
against a reference written out leg by leg from basis_mul,
basis_coproduct, the unit and the counit in Fraction, Cyclotomic and
Series arithmetic, over group algebras at hbar order 2 and 3, a dual host,
a host whose coproduct is twisted (its coproduct pieces span every hbar
degree) and a k[Z3] whose tensors carry roots of unity, so that exponents
pass phi(N) and move onto the basis.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist.constructors import (
    cyclic_group,
    dual_group_hopf,
    elementary_abelian_2,
    group_algebra,
    symmetric_3,
)
from hopftwist.hopf_cochain import HopfCochain, counital_projection, twist
from hopftwist.multilinear import LegTensor, with_series_ring
from hopftwist.scalars import Series, TauLaurent, root_of_unity

S3, Z23, Z22, Z3 = symmetric_3(), elementary_abelian_2(3), elementary_abelian_2(2), cyclic_group(3)


def _twisted_s3(order):
    """k[S3] at the given order with its coproduct twisted by F = 1 + hP,
    P a counital rational 2-tensor with several denominators: the twisted
    coproduct is not group-like and has a piece in every hbar degree."""
    H = with_series_ring(group_algebra(S3), order)
    rng = random.Random(20)
    pairs = rng.sample([(i, j) for i in range(1, 6) for j in range(1, 6)], 6)
    P = LegTensor(H, 2, {p: Fraction(rng.choice((-3, -1, 2)), rng.choice((1, 2, 3))) for p in pairs})
    F = LegTensor.unit(H, 2).add(counital_projection(P).scale(Series.hbar(order)))
    return twist(H, HopfCochain(H, 2, F)).twisted


HOSTS = {
    "k[S3]+h2": with_series_ring(group_algebra(S3), 2),
    "k[S3]+h3": with_series_ring(group_algebra(S3), 3),
    "k[Z2^3]+h2": with_series_ring(group_algebra(Z23), 2),
    "k[Z2^3]+h3": with_series_ring(group_algebra(Z23), 3),
    "dual[Z2^2]": dual_group_hopf(Z22),
    "dual[Z2^2]+h2": with_series_ring(dual_group_hopf(Z22), 2),
    "twisted[S3]+h2": _twisted_s3(2),
    "k[Z3]+h2": with_series_ring(group_algebra(Z3), 2),
}
# the products run on the piece_product kernels these tests are about
assert all(H.rational_kernel(4) is not None for H in HOSTS.values())
assert any(v.coeffs[1] for cell in HOSTS["twisted[S3]+h2"].coproduct.values() for v in cell.values())

SETTINGS = settings(max_examples=30, deadline=None)
RATIONALS = st.sampled_from([Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3, 5)])


def _phases(name):
    """Scalars a coefficient is a rational multiple of on host name."""
    H = HOSTS[name]
    if not H.ring.is_series:
        return [1]
    h, K = Series.hbar(H.ring.hbar_order), H.ring.hbar_order
    out = [1, h, h * h, h * TauLaurent.tau(), h + TauLaurent.tau(-1)]
    if K >= 3:
        out.append(h * h * h)
    if name == "k[Z3]+h2":
        z3, z4 = root_of_unity(1, 3), root_of_unity(1, 4)
        out += [z3, z3 * z3, h * z3, 1 + z3, h * z4, z3 * z4]
    return out


@st.composite
def tensors(draw, name, arity):
    """A tensor of the given arity on host name as {digit tuple: value}; half
    the time with a multiple of the unit added, which is a single key over a
    group algebra."""
    H = HOSTS[name]
    keys = st.tuples(*[st.integers(0, H.dim - 1)] * arity)
    coeff = st.builds(lambda q, c: q * c, RATIONALS, st.sampled_from(_phases(name)))
    out = draw(st.dictionaries(keys, coeff, max_size=8 if arity <= 2 else 5))
    if draw(st.booleans()):
        unit = LegTensor.unit(H, arity).scale(draw(RATIONALS))
        for key, v in unit.entries():
            out[key] = out[key] + v if key in out else v
    return {k: H.ring.coerce(v) for k, v in out.items() if v}


def _sum(out, key, c):
    out[key] = out[key] + c if key in out else c


def _nonzero(out):
    return {k: c for k, c in out.items() if c}


def naive_mul(H, a, b):
    """a * b leg by leg from basis_mul, in value arithmetic."""
    out = {}
    for ka, x in a.items():
        for kb, y in b.items():
            terms = [((), x * y)]
            for i, j in zip(ka, kb):
                terms = [(key + (k,), c * w) for key, c in terms for k, w in H.basis_mul(i, j).items()]
            for key, c in terms:
                _sum(out, key, c)
    return _nonzero(out)


def naive_embed(H, t, positions, arity_out):
    """t with its legs at positions and the unit on every other leg."""
    missing = [p for p in range(arity_out) if p not in positions]
    unit = H.elem_unit()
    out = {}
    for key, c in t.items():
        for fill in itertools.product(unit.items(), repeat=len(missing)):
            digits = [None] * arity_out
            for p, d in zip(positions, key):
                digits[p] = d
            v = c
            for p, (d, w) in zip(missing, fill):
                digits[p] = d
                v = v * w
            _sum(out, tuple(digits), v)
    return _nonzero(out)


def naive_coproduct(H, t, leg):
    out = {}
    for key, c in t.items():
        for (j, k), w in H.basis_coproduct(key[leg]).items():
            _sum(out, key[:leg] + (j, k) + key[leg + 1:], c * w)
    return _nonzero(out)


def naive_counit(H, t, leg):
    out = {}
    for key, c in t.items():
        e = H.counit[key[leg]]
        if e:
            _sum(out, key[:leg] + key[leg + 1:], c * e)
    return _nonzero(out)


def got(t):
    return dict(t.entries())


@SETTINGS
@given(st.sampled_from(sorted(HOSTS)), st.integers(1, 4), st.data())
def test_products_match_value_arithmetic(name, arity, data):
    H = HOSTS[name]
    a = data.draw(tensors(name, arity))
    b = data.draw(tensors(name, arity))
    prod = LegTensor(H, arity, a).mul(LegTensor(H, arity, b))
    assert got(prod) == naive_mul(H, a, b)
    # the stored pieces are canonical: no zero numerator, content removed
    for nums, den in prod.rows().values():
        assert nums and all(nums.values()) and den > 0
        assert gcd(den, *nums.values()) == 1


@SETTINGS
@given(st.sampled_from(sorted(HOSTS)), st.integers(1, 4), st.data())
def test_leg_calculus_matches_value_arithmetic(name, arity, data):
    H = HOSTS[name]
    t = data.draw(tensors(name, arity))
    T = LegTensor(H, arity, t)
    arity_out = data.draw(st.integers(arity, 4))
    positions = sorted(data.draw(st.permutations(range(arity_out)))[:arity])
    assert got(T.leg_embed(positions, arity_out)) == naive_embed(H, t, positions, arity_out)
    leg = data.draw(st.integers(0, arity - 1))
    assert got(T.counit_leg(leg)) == naive_counit(H, t, leg)
    if arity <= 3:
        assert got(T.coproduct_leg(leg)) == naive_coproduct(H, t, leg)


@pytest.mark.parametrize("name", ["k[S3]+h2", "k[Z2^3]+h3", "twisted[S3]+h2"])
def test_an_output_phase_that_cancels_over_different_denominators(name):
    # a = 1/2 + (1/3) h g and b = 1/5 - (2/15) h g: the two pairs of phases
    # that land on hbar^1 are -1/15 g over 30 and 1/15 g over 15, which sum
    # to zero only when each is scaled to their common denominator
    H = HOSTS[name]
    h = Series.hbar(H.ring.hbar_order)
    ((e, _one),) = H.elem_unit().items()
    g = (e + 1) % H.dim
    for arity in range(1, 5):
        ones, gs = (e,) * arity, (g,) * arity
        a = LegTensor(H, arity, {ones: Fraction(1, 2), gs: Fraction(1, 3) * h})
        b = LegTensor(H, arity, {ones: Fraction(1, 5), gs: Fraction(-2, 15) * h})
        prod = a.mul(b)
        assert all(v != 1 for v, _t, _e in prod.rows())
        assert got(prod) == naive_mul(H, dict(a.entries()), dict(b.entries()))


def test_roots_of_unity_wrap_past_phi():
    # z3 * z3 = z3^2 = -1 - z3 in the reduced basis of Q(z3), phi(3) = 2
    H = HOSTS["k[Z3]+h2"]
    z3 = root_of_unity(1, 3)
    a = {(1, 2): z3 + Series.hbar(2) * z3, (0, 0): Fraction(1, 2)}
    b = {(2, 2): z3 * Fraction(3, 2), (1, 0): -z3}
    prod = LegTensor(H, 2, a).mul(LegTensor(H, 2, b))
    assert got(prod) == naive_mul(H, a, b)
    assert all(e < 2 for _v, _t, e in prod.rows())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_twisted_coproduct_sums_its_pieces_per_output_phase(arity, data):
    # the twisted coproduct has pieces in hbar^0, hbar^1 and hbar^2 over
    # their own denominators, so a tensor with pieces in several degrees
    # sends several pairs of phases to each output phase
    name = "twisted[S3]+h2"
    H = HOSTS[name]
    h = Series.hbar(2)
    t = data.draw(tensors(name, arity))
    t = {k: v * (Fraction(1, 3) + Fraction(2, 5) * h) for k, v in t.items()}
    leg = data.draw(st.integers(0, arity - 1))
    assert got(LegTensor(H, arity, t).coproduct_leg(leg)) == naive_coproduct(H, t, leg)

"""Leg-indexed tensor calculus and presentation-level helpers."""

import random
from fractions import Fraction

import pytest

from hopftwist import multilinear as kernel
from hopftwist.constructors import (
    dual_action_module,
    dual_group_hopf,
    group_algebra,
    symmetric_3,
    taft,
)
from hopftwist.errors import (
    ArityMismatch,
    BadLeg,
    BadPositions,
    NotInvertible,
)
from hopftwist.multilinear import (
    LegTensor,
    ModuleAlgebra,
    tensor_invert,
    verify_algebra,
    verify_hopf,
    with_series_ring,
)
from hopftwist.scalars import ScalarRing, Series, TauLaurent

S3 = symmetric_3()
KS3 = group_algebra(S3)
KD = dual_group_hopf(S3)


def rand_tensor(host, arity, rng, terms=6):
    data = {}
    for _ in range(terms):
        key = tuple(rng.randrange(host.dim) for _ in range(arity))
        data[key] = data.get(key, 0) + Fraction(rng.randint(-3, 3))
    return LegTensor(host, arity, {k: v for k, v in data.items() if v})


def test_unit_is_identity():
    rng = random.Random(1)
    t = rand_tensor(KS3, 2, rng)
    u = LegTensor.unit(KS3, 2)
    assert u.mul(t).eq(t)
    assert t.mul(u).eq(t)


def test_mul_associative():
    rng = random.Random(2)
    a = rand_tensor(KS3, 2, rng)
    b = rand_tensor(KS3, 2, rng)
    c = rand_tensor(KS3, 2, rng)
    assert a.mul(b).mul(c).eq(a.mul(b.mul(c)))


def test_outer_matches_entrywise_product():
    rng = random.Random(3)
    u = {0: Fraction(2), 3: Fraction(-1)}
    v = {1: Fraction(1, 2), 4: Fraction(5)}
    t = LegTensor.outer(KS3, [u, v])
    for (i, j), c in t.entries():
        assert c == u[i] * v[j]
    assert t.term_count() == 4


def test_leg_embed_inserts_unit_legs():
    vec = {2: Fraction(3)}
    t = LegTensor.from_element(KS3, vec)
    e = t.leg_embed((1,), 3)
    # unit of a group algebra is the identity element, index 0
    assert e.entries() == [((0, 2, 0), Fraction(3))]


def test_leg_embed_position_errors():
    t = LegTensor.from_element(KS3, {1: Fraction(1)})
    with pytest.raises(BadPositions):
        t.leg_embed((0, 1), 3)
    t2 = rand_tensor(KS3, 2, random.Random(4))
    with pytest.raises(BadPositions):
        t2.leg_embed((1, 0), 3)
    with pytest.raises(BadPositions):
        t2.leg_embed((0, 5), 3)


def test_counit_laws_per_leg():
    rng = random.Random(5)
    t = rand_tensor(KS3, 1, rng)
    d = t.coproduct_leg(0)
    assert d.counit_leg(0).eq(t)
    assert d.counit_leg(1).eq(t)
    with pytest.raises(BadLeg):
        t.coproduct_leg(3)
    with pytest.raises(BadLeg):
        t.counit_leg(1)


def test_coproduct_leg_commutation():
    # applying the coproduct at a later leg first shifts the earlier index
    rng = random.Random(6)
    for host in (KS3, KD):
        t = rand_tensor(host, 2, rng)
        lhs = t.coproduct_leg(1).coproduct_leg(0)
        rhs = t.coproduct_leg(0).coproduct_leg(2)
        assert lhs.eq(rhs)


def test_add_sub_scale():
    rng = random.Random(7)
    a = rand_tensor(KS3, 2, rng)
    b = rand_tensor(KS3, 2, rng)
    assert a.add(b).sub(b).eq(a)
    assert a.scale(Fraction(0)).is_zero()
    assert a.scale(Fraction(2)).sub(a).eq(a)
    with pytest.raises(ArityMismatch):
        a.add(rand_tensor(KS3, 3, rng))
    with pytest.raises(ValueError):
        a.mul(rand_tensor(KD, 2, rng))


def test_tensor_invert_exact_two_sided():
    rng = random.Random(8)
    u = LegTensor.unit(KS3, 2)
    for _ in range(4):
        t = u.add(rand_tensor(KS3, 2, rng, terms=3))
        try:
            inv = tensor_invert(t)
        except NotInvertible:
            continue
        assert t.mul(inv).eq(u)
        assert inv.mul(t).eq(u)


def test_tensor_invert_nilpotent_fails():
    T = taft(2)
    x = LegTensor.from_element(T, {T.labels.index("x"): Fraction(1)})
    with pytest.raises(NotInvertible):
        tensor_invert(x)


def test_tensor_invert_series_geometric():
    host = group_algebra(S3, ScalarRing(hbar_order=3))
    rng = random.Random(9)
    u = LegTensor.unit(host, 2)
    pert = rand_tensor(host, 2, rng, terms=4).scale(Series.hbar(3))
    t = u.add(pert)
    inv = tensor_invert(t)
    assert t.mul(inv).eq(u)
    assert inv.mul(t).eq(u)


def test_tensor_invert_series_tau_constant_rejected():
    host = group_algebra(S3, ScalarRing(hbar_order=2))
    bad = Series(2, {0: TauLaurent({1: Fraction(1)})})
    t = LegTensor(host, 1, {0: bad}, _checked=True)
    with pytest.raises(NotInvertible):
        tensor_invert(t)


def legwise(a, b):
    """a*b on digit-tuple keys, expanded leg by leg from host.basis_mul in
    plain scalar arithmetic."""
    out = {}
    for x, va in a.entries():
        for y, vb in b.entries():
            terms = [((), va * vb)]
            for g, h in zip(x, y):
                terms = [
                    (key + (k,), c * w)
                    for key, c in terms
                    for k, w in a.host.basis_mul(g, h).items()
                ]
            for key, c in terms:
                out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def test_pointwise_product_matches_kernel():
    # the dual host takes the intersection shortcut; compare with the
    # product expanded leg by leg on identical inputs
    rng = random.Random(10)
    a = rand_tensor(KD, 2, rng, terms=12)
    b = rand_tensor(KD, 2, rng, terms=12)
    assert dict(a.mul(b).entries()) == legwise(a, b)


def test_filtered_series_product_matches_kernel():
    host = group_algebra(S3, ScalarRing(hbar_order=2))
    rng = random.Random(11)
    u = LegTensor.unit(host, 2)
    a = u.add(rand_tensor(host, 2, rng, terms=5).scale(Series.hbar(2)))
    b = u.add(rand_tensor(host, 2, rng, terms=5).scale(Series.hbar(2)))
    assert dict(a.mul(b).entries()) == legwise(a, b)


def test_tensor_convolve_drops_exact_zeros():
    base = KS3.key_table()
    a = {0: Fraction(1), 1: Fraction(-1)}
    b = {0: Fraction(1)}
    out = kernel.tensor_convolve(a, a, KS3.dim, 1, base)
    # (e - g)(e - g) = e - 2g + g^2; no zero-valued keys may linger
    assert all(v for v in out.values())
    assert kernel.tensor_convolve({}, b, KS3.dim, 1, base) == {}


def test_module_algebra_axioms():
    mod = dual_action_module(S3)
    for ck in verify_algebra(mod.algebra, module=mod):
        assert ck.ok, ck.id


def test_act_tensor_legwise():
    mod = dual_action_module(S3)
    t = LegTensor(mod.host, 2, {(2, 3): Fraction(5)})
    # the projections d(2) (x) d(3) keep only the pair ([2], [3])
    assert mod.act_tensor(t) == {(2, 3): {(2, 3): Fraction(5)}}


def test_verify_hopf_group_host():
    for ck in verify_hopf(KS3):
        assert ck.ok, ck.id


def test_with_series_ring_preserves_tables():
    host = with_series_ring(KS3, 2)
    assert host.ring.is_series and host.ring.hbar_order == 2
    assert host.dim == KS3.dim and host.labels == KS3.labels
    for ck in verify_hopf(host):
        assert ck.ok, ck.id
    back = host.order0_host()
    assert back.mult == KS3.mult
    assert back.unit == KS3.unit


def test_module_algebra_rejects_zero_rows_silently():
    # zero action vectors are dropped rather than stored
    mod = ModuleAlgebra(KD, dual_action_module(S3).algebra, {(0, 0): {}})
    assert mod.action == {}

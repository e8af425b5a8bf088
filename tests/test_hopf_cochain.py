"""Invertible cochains on a presentation, their coboundary, and twisting."""

import random
from fractions import Fraction

import pytest

from hopftwist.constructors import (
    cyclic_group,
    dihedral_4,
    dual_action_module,
    dual_group_hopf,
    elementary_abelian_2,
    group_algebra,
    pauli_8,
    symmetric_3,
)
from hopftwist.errors import ArityMismatch, NotCounital, NotInvertible
from hopftwist.group_cohomology import fano_octonions
from hopftwist.hopf_cochain import (
    HopfCochain,
    QuasiHopfTwistResult,
    coboundary_pair,
    dsquared,
    equivariant_twist_check,
    gauge_act,
    gauge_equivalent,
    gauge_equivariance_report,
    hopf_coboundary,
    is_counital,
    is_in_kernel,
    is_invariant,
    random_counital_two_cochain,
    random_invariant_two_cochain,
    random_invertible_element_cochain,
    random_pointwise_cochain,
    twist,
    unit_cochain,
    verify_quasi,
)
from hopftwist.multilinear import LegTensor
from hopftwist.scalars import ScalarRing

S3 = symmetric_3()
KS3 = group_algebra(S3)
P8 = pauli_8()
KP8 = group_algebra(P8)
SER = ScalarRing(hbar_order=2)


def test_unit_and_grouplike_coboundaries_trivial():
    d = hopf_coboundary(unit_cochain(KS3, 1))
    assert d.value.eq(LegTensor.unit(KS3, 2))
    for g in range(KS3.dim):
        c = HopfCochain.from_element(KS3, {g: Fraction(1)})
        assert hopf_coboundary(c).value.eq(LegTensor.unit(KS3, 2)), g


def test_from_element_rejects_non_invertible():
    from hopftwist.constructors import taft

    T = taft(2)
    with pytest.raises(NotInvertible):
        HopfCochain.from_element(T, {T.labels.index("x"): Fraction(1)})


def test_closed_forms_match_engine():
    rng = random.Random(7)
    h = random_invertible_element_cochain(KS3, rng)
    hh = LegTensor.outer(KS3, [dict(h.value.data), dict(h.value.data)])
    dhinv = LegTensor(KS3, 2, dict(KS3.elem_coproduct(dict(h.inverse.data))))
    eng1, eng1inv = coboundary_pair(h.value, h.inverse)
    assert hh.mul(dhinv).eq(eng1)
    assert eng1.mul(eng1inv).eq(LegTensor.unit(KS3, 2))
    assert eng1inv.mul(eng1).eq(LegTensor.unit(KS3, 2))

    F2 = HopfCochain(KS3, 2, eng1, eng1inv, _trusted=True)
    val2, inv2 = coboundary_pair(F2.value, F2.inverse)
    closed2 = (
        F2.value.leg_embed((1, 2), 3)
        .mul(F2.value.coproduct_leg(1))
        .mul(F2.inverse.coproduct_leg(0))
        .mul(F2.inverse.leg_embed((0, 1), 3))
    )
    assert closed2.eq(val2)
    assert val2.mul(inv2).eq(LegTensor.unit(KS3, 3))

    F3 = HopfCochain(KS3, 3, val2, inv2, _trusted=True)
    val3, inv3 = coboundary_pair(F3.value, F3.inverse)
    closed3 = (
        F3.value.leg_embed((1, 2, 3), 4)
        .mul(F3.value.coproduct_leg(1))
        .mul(F3.value.leg_embed((0, 1, 2), 4))
        .mul(F3.inverse.coproduct_leg(0))
        .mul(F3.inverse.coproduct_leg(2))
    )
    assert closed3.eq(val3)
    assert val3.mul(inv3).eq(LegTensor.unit(KS3, 4))


@pytest.mark.parametrize(
    "name",
    ["kZ3", "kZ2^3", "kS3", "kD4", "kP8", "k^Z2^2", "k^S3"],
)
def test_dsquared_one_cochains(name):
    hosts = {
        "kZ3": group_algebra(cyclic_group(3)),
        "kZ2^3": group_algebra(elementary_abelian_2(3)),
        "kS3": KS3,
        "kD4": group_algebra(dihedral_4()),
        "kP8": KP8,
        "k^Z2^2": dual_group_hopf(elementary_abelian_2(2)),
        "k^S3": dual_group_hopf(S3),
    }
    H = hosts[name]
    rng = random.Random(hash(name) % 1000)
    for _ in range(2):
        if name.startswith("k^"):
            c = random_pointwise_cochain(H, rng, 1)
        else:
            c = random_invertible_element_cochain(H, rng)
        assert dsquared(c).eq(LegTensor.unit(H, 3))


def test_pauli_dsquared_counterexample():
    lab = KP8.labels
    iX, iZ, m1 = lab.index("[iX]"), lab.index("[iZ]"), lab.index("[-1]")
    aXb = LegTensor(KP8, 2, {(iX, iZ): Fraction(1)})
    inv_ab = LegTensor(KP8, 2, {(P8.inv[iX], P8.inv[iZ]): Fraction(1)})
    got = dsquared(HopfCochain(KP8, 2, aXb, inv_ab))
    expect = LegTensor(KP8, 4, {(0, m1, m1, 0): Fraction(1)})
    assert got.eq(expect)
    assert not got.eq(LegTensor.unit(KP8, 4))


def test_dsquared_invariant_two_cochains():
    rng = random.Random(23)
    kS3h = group_algebra(S3, SER)
    c = random_invariant_two_cochain(kS3h, rng, group=S3)
    assert is_invariant(c)
    assert dsquared(c).eq(LegTensor.unit(kS3h, 4))

    kZ23h = group_algebra(elementary_abelian_2(3), SER)
    c = random_invariant_two_cochain(kZ23h, rng)
    assert is_invariant(c)
    assert dsquared(c).eq(LegTensor.unit(kZ23h, 4))

    kdZ22 = dual_group_hopf(elementary_abelian_2(2))
    c = random_pointwise_cochain(kdZ22, random.Random(5), 2)
    assert is_invariant(c)
    assert dsquared(c).eq(LegTensor.unit(kdZ22, 4))


def test_invariance_closed_under_coboundary():
    rng = random.Random(29)
    kS3h = group_algebra(S3, SER)
    c = random_invariant_two_cochain(kS3h, rng, group=S3)
    assert is_invariant(hopf_coboundary(c))
    c1 = HopfCochain.from_element(KS3, {0: Fraction(2)})
    assert is_invariant(c1)
    assert is_invariant(hopf_coboundary(c1))


def test_counital_invariant_predicates():
    assert is_counital(unit_cochain(KS3, 2))
    scaled = HopfCochain(
        KS3, 2,
        LegTensor.unit(KS3, 2).scale(Fraction(3)),
        LegTensor.unit(KS3, 2).scale(Fraction(1, 3)),
    )
    assert not is_counital(scaled)
    assert is_invariant(scaled)
    m1 = KP8.labels.index("[-1]")
    gg = HopfCochain(
        KP8, 2,
        LegTensor(KP8, 2, {(m1, m1): Fraction(1)}),
        LegTensor(KP8, 2, {(m1, m1): Fraction(1)}),
    )
    assert is_invariant(gg)
    assert not is_counital(gg)
    lab = KP8.labels
    notinv = HopfCochain(
        KP8, 2,
        LegTensor(KP8, 2, {(lab.index("[iX]"), lab.index("[iZ]")): Fraction(1)}),
        LegTensor(KP8, 2, {(P8.inv[lab.index("[iX]")], P8.inv[lab.index("[iZ]")]): Fraction(1)}),
    )
    assert not is_invariant(notinv)


def test_octonion_twist_reproduction():
    G8, Fcochain, Oct = fano_octonions()
    mod = dual_action_module(G8)
    valF = LegTensor(mod.host, 2, dict(Fcochain.table))
    FF = HopfCochain(mod.host, 2, valF, valF)
    assert is_counital(FF)
    assert is_invariant(FF)
    assert not is_in_kernel(FF)
    R = twist(mod.host, FF, mod)
    assert R.twisted_algebra.mult == Oct.mult
    assert R.phi.value.sub(LegTensor.unit(mod.host, 3)).term_count() > 0
    for ck in verify_quasi(R):
        assert ck.ok, ck.id
    assert equivariant_twist_check(FF, R)


def test_random_counital_twists_verify():
    rng = random.Random(31)
    for H in (
        group_algebra(elementary_abelian_2(3), SER),
        group_algebra(S3, SER),
        dual_group_hopf(elementary_abelian_2(2), SER),
    ):
        F = random_counital_two_cochain(H, rng)
        assert is_counital(F)
        for ck in verify_quasi(twist(H, F)):
            assert ck.ok, (H.name, ck.id)


def test_twist_with_module_runs_all_five_checks():
    rng = random.Random(37)
    mod = dual_action_module(elementary_abelian_2(2), SER)
    F = random_counital_two_cochain(mod.host, rng)
    R = twist(mod.host, F, mod)
    cks = verify_quasi(R)
    assert len(cks) == 5
    for ck in cks:
        assert ck.ok, ck.id


def test_pentagon_failure_names_first_residual_key():
    # phi = 1 corrupted to x (x) 1 (x) 1 with x = 1 + 2g in k[Z2]: d(phi) is
    # (x (x) x) D(x)^-1 (x) 1 (x) 1 = (7 + 2 g(x)1 + 2 1(x)g - 2 g(x)g)/3 on the
    # first two legs, so d(phi) - 1 has 4 terms, the first at e(x)e(x)e(x)e
    H = group_algebra(cyclic_group(2))
    R = twist(H, unit_cochain(H, 2))
    x = LegTensor(H, 3, {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(2)})
    bad = HopfCochain(H, 3, R.phi.value.mul(x))
    corrupted = QuasiHopfTwistResult(R.original, R.twisted, R.cochain, bad, None, None)
    cks = {ck.id: ck for ck in verify_quasi(corrupted)}
    ck = cks["associator-pentagon"]
    assert (ck.status, ck.residual_term_count) == ("fail", 4)
    assert ck.witness == "([e],[e],[e],[e])"
    assert {ck.id: ck for ck in verify_quasi(R)}["associator-pentagon"].witness is None


def test_unit_twist_is_identity():
    mod = dual_action_module(elementary_abelian_2(2))
    H = mod.host
    R = twist(H, unit_cochain(H, 2), mod)
    assert R.twisted.coproduct == H.coproduct
    assert R.twisted_algebra.mult == mod.algebra.mult
    assert R.phi.value.eq(LegTensor.unit(H, 3))
    for ck in verify_quasi(R):
        assert ck.ok, ck.id


def test_twist_argument_errors():
    with pytest.raises(ArityMismatch):
        twist(KS3, unit_cochain(KS3, 3))
    scaled = HopfCochain(
        KS3, 2,
        LegTensor.unit(KS3, 2).scale(Fraction(3)),
        LegTensor.unit(KS3, 2).scale(Fraction(1, 3)),
    )
    with pytest.raises(NotCounital):
        twist(KS3, scaled)
    other = group_algebra(cyclic_group(2))
    with pytest.raises(ValueError):
        twist(other, unit_cochain(KS3, 2))


def test_gauge_battery():
    rng = random.Random(41)
    g = random_invertible_element_cochain(KS3, rng)
    h1 = random_invertible_element_cochain(KS3, rng)
    Fr, Frinv = coboundary_pair(h1.value, h1.inverse)
    Fc = HopfCochain(KS3, 2, Fr, Frinv, _trusted=True)
    rep = gauge_equivariance_report(g, Fc)
    assert rep.ok
    aF = gauge_act(g, Fc)
    assert gauge_equivalent(Fc, aF, g)
    u = unit_cochain(KS3, 1)
    assert gauge_act(u, Fc).value.eq(Fc.value)
    # coboundaries lie in the kernel and stay there under gauge moves
    assert is_in_kernel(Fc)
    assert is_in_kernel(aF)
    assert equivariant_twist_check(Fc)

"""Invertible cochains on a presentation, their coboundary, and twisting."""

import random
from fractions import Fraction

import pytest

from hopftwist import cochain_engine, hopf_cochain
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
    coboundary,
    coboundary_pair,
    cocycle_report,
    conjugation_residual,
    counital_projection,
    counital_report,
    dsquared,
    equivariant_twist_check,
    gauge_act,
    gauge_equivariance_report,
    hopf_coboundary,
    invariant_report,
    key_witness,
    pentagon_residual,
    random_counital_two_cochain,
    random_invariant_two_cochain,
    random_invertible_element_cochain,
    random_pointwise_cochain,
    twist,
    unit_cochain,
    verify_quasi,
)
from hopftwist.io_json import presentation_from_dict, presentation_to_dict
from hopftwist.multilinear import (
    AlgebraPresentation,
    HopfPresentation,
    LegTensor,
    with_series_ring,
)
from hopftwist.pbw import PBWTensor, pbw_exp
from hopftwist.scalars import ScalarRing, Series, accumulate, root_of_unity

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
    from hopftwist.sample_hosts import taft

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
    assert invariant_report(c).ok
    assert dsquared(c).eq(LegTensor.unit(kS3h, 4))

    kZ23h = group_algebra(elementary_abelian_2(3), SER)
    c = random_invariant_two_cochain(kZ23h, rng)
    assert invariant_report(c).ok
    assert dsquared(c).eq(LegTensor.unit(kZ23h, 4))

    kdZ22 = dual_group_hopf(elementary_abelian_2(2))
    c = random_pointwise_cochain(kdZ22, random.Random(5), 2)
    assert invariant_report(c).ok
    assert dsquared(c).eq(LegTensor.unit(kdZ22, 4))


def test_invariance_closed_under_coboundary():
    rng = random.Random(29)
    kS3h = group_algebra(S3, SER)
    c = random_invariant_two_cochain(kS3h, rng, group=S3)
    assert invariant_report(hopf_coboundary(c)).ok
    c1 = HopfCochain.from_element(KS3, {0: Fraction(2)})
    assert invariant_report(c1).ok
    assert invariant_report(hopf_coboundary(c1)).ok


def test_counital_invariant_predicates():
    assert counital_report(unit_cochain(KS3, 2)).ok
    scaled = HopfCochain(
        KS3, 2,
        LegTensor.unit(KS3, 2).scale(Fraction(3)),
        LegTensor.unit(KS3, 2).scale(Fraction(1, 3)),
    )
    assert not counital_report(scaled).ok
    assert invariant_report(scaled).ok
    m1 = KP8.labels.index("[-1]")
    gg = HopfCochain(
        KP8, 2,
        LegTensor(KP8, 2, {(m1, m1): Fraction(1)}),
        LegTensor(KP8, 2, {(m1, m1): Fraction(1)}),
    )
    assert invariant_report(gg).ok
    assert not counital_report(gg).ok
    lab = KP8.labels
    notinv = HopfCochain(
        KP8, 2,
        LegTensor(KP8, 2, {(lab.index("[iX]"), lab.index("[iZ]")): Fraction(1)}),
        LegTensor(KP8, 2, {(P8.inv[lab.index("[iX]")], P8.inv[lab.index("[iZ]")]): Fraction(1)}),
    )
    assert not invariant_report(notinv).ok


def test_octonion_twist_reproduction():
    G8, Fcochain, Oct = fano_octonions()
    mod = dual_action_module(G8)
    valF = LegTensor(mod.host, 2, dict(Fcochain.table))
    FF = HopfCochain(mod.host, 2, valF, valF)
    assert counital_report(FF).ok
    assert invariant_report(FF).ok
    assert not cocycle_report(FF).ok
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
        assert counital_report(F).ok
        for ck in verify_quasi(twist(H, F)):
            assert ck.ok, (H.name, ck.id)


def test_twisted_host_shares_the_product_side():
    # the twisted host takes its base host's tables and caches; a twisted
    # host built with its own product side gives the same outcomes
    rng = random.Random(43)
    for H in (
        group_algebra(dihedral_4(), SER),
        group_algebra(S3, SER),
        dual_group_hopf(elementary_abelian_2(2), SER),
    ):
        F = random_counital_two_cochain(H, rng)
        R = twist(H, F)
        tw = R.twisted
        assert tw.mult is H.mult
        assert (tw.unit, tw.counit) == (H.unit, H.counit)
        assert tw.key_table() is H.key_table()
        assert tw.phase_table() is H.phase_table()
        assert tw.unit_rows(3) is H.unit_rows(3)
        own = HopfPresentation(
            H.dim, H.labels, H.ring, H.mult, H.unit, tw.coproduct, H.counit, name="own",
        )
        assert own.phase_table() is not H.phase_table()
        alone = QuasiHopfTwistResult(H, own, R.cochain, R.phi, None, None)
        got, want = (
            [(ck.id, ck.status, ck.residual_term_count, ck.witness) for ck in verify_quasi(res)]
            for res in (R, alone)
        )
        assert got == want
        assert all(status == "pass" for _id, status, _n, _w in got)


def test_twist_with_module_runs_all_five_checks():
    rng = random.Random(37)
    mod = dual_action_module(elementary_abelian_2(2), SER)
    F = random_counital_two_cochain(mod.host, rng)
    R = twist(mod.host, F, mod)
    cks = verify_quasi(R)
    assert len(cks) == 5
    for ck in cks:
        assert ck.ok, ck.id


def _with_coproduct_fault(tw, i):
    """tw with the term b_0 (x) b_i added to the coproduct of basis i."""
    cop = {j: dict(cell) for j, cell in tw.coproduct.items()}
    accumulate(cop.setdefault(i, {}), (0, i), tw.ring.one())
    faulted = HopfPresentation(
        tw.dim, tw.labels, tw.ring, tw.mult, tw.unit, cop, tw.counit,
        name=tw.name + "-fault",
    )
    faulted.share_product(tw)
    return faulted


def _with_phi_fault(R):
    """R with phi replaced by phi (x (x) 1 (x) 1), x = 1 + 2 b_1, its inverse
    given as (x^-1 (x) 1 (x) 1) phi^-1."""
    tw = R.twisted
    x = tw.elem_unit()
    accumulate(x, 1, 2 * tw.ring.one())
    xc = HopfCochain.from_element(tw, x)
    unit = tw.elem_unit()
    x3 = LegTensor.outer(tw, [dict(xc.value.data), unit, unit])
    x3inv = LegTensor.outer(tw, [dict(xc.inverse.data), unit, unit])
    phi = R.phi_twisted()
    bad = HopfCochain(tw, 3, phi.value.mul(x3), x3inv.mul(phi.inverse), _trusted=True)
    return QuasiHopfTwistResult(R.original, tw, R.cochain, bad, None, None)


def _checks(R):
    return {ck.id: ck for ck in verify_quasi(R)}


def test_conjugation_failure_names_the_faulted_basis_label():
    # over a commutative host the twisted coproduct of b_i is b_i (x) b_i,
    # so a fault in the coproduct of b_2 shows at b_2 alone
    H = group_algebra(cyclic_group(3), SER)
    R = twist(H, random_counital_two_cochain(H, random.Random(7)))
    assert _checks(R)["twisted-coproduct-conjugation"].witness is None
    faulted = _with_coproduct_fault(R.twisted, 2)
    bad = QuasiHopfTwistResult(H, faulted, R.cochain, R.phi, None, None)
    ck = _checks(bad)["twisted-coproduct-conjugation"]
    assert (ck.status, ck.residual_term_count) == ("fail", 13)
    assert ck.witness == H.labels[2]


def test_counital_and_invariant_failures_sum_their_residuals():
    # 1 (x) 1 + 2 (12) (x) (23) + (13) (x) 1 on k[S3]: off the counit on both
    # legs, and commuting with the iterated coproduct of the unit alone
    F = LegTensor(KS3, 2, {(0, 0): Fraction(1), (1, 2): Fraction(2), (3, 0): Fraction(1)})
    c = HopfCochain.deferred(KS3, 2, F, None)
    got = [
        (ck.id, ck.residual_term_count, ck.witness)
        for ck in (hopf_cochain.counital_report(c), hopf_cochain.invariant_report(c))
    ]
    assert got == [("counital", 4, "leg 0"), ("invariant", 18, "[(12)]")]


def _conjugations_with_inverse(R):
    """Pass or fail of Phi (Delta (x) id) Delta(b_i) Phi^-1 against
    (id (x) Delta) Delta(b_i) at each basis element, and of d(Phi) = 1."""
    tw = R.twisted
    phi = R.phi_twisted()
    one = tw.ring.one()
    out = []
    for i in range(tw.dim):
        d = LegTensor.from_element(tw, {i: one}).coproduct_leg(0)
        rhs = phi.value.mul(d.coproduct_leg(0)).mul(phi.inverse)
        out.append(d.coproduct_leg(1).eq(rhs))
    return out, coboundary(phi.value, phi.inverse).eq(LegTensor.unit(tw, 4))


def _conjugations_without_inverse(R):
    phi = R.phi_twisted().value
    out = [conjugation_residual(phi, i).is_zero() for i in range(R.twisted.dim)]
    return out, pentagon_residual(phi).is_zero()


@pytest.mark.parametrize("K", [2, 3])
def test_checks_without_phi_inverse_agree_with_the_inverse_forms(K):
    # the pentagon forms agree where each D_i is an algebra map, so they are
    # compared with a fault in phi and not with one in the coproduct
    rng = random.Random(2600 + K)
    ring = ScalarRing(hbar_order=K)
    for H in (
        group_algebra(cyclic_group(3), ring),
        group_algebra(elementary_abelian_2(2), ring),
        group_algebra(S3, ring),
        group_algebra(elementary_abelian_2(3), ring),
        dual_group_hopf(elementary_abelian_2(2), ring),
    ):
        R = twist(H, random_counital_two_cochain(H, rng))
        faulted = _with_coproduct_fault(R.twisted, 1)
        cases = [
            ("clean", R, True),
            ("coproduct", QuasiHopfTwistResult(H, faulted, R.cochain, R.phi, None, None), False),
            ("phi", _with_phi_fault(R), True),
        ]
        for name, res, pentagon_too in cases:
            old, old_pent = _conjugations_with_inverse(res)
            new, new_pent = _conjugations_without_inverse(res)
            assert new == old, (H.name, K, name)
            if pentagon_too:
                assert new_pent == old_pent, (H.name, K, name)
            cks = _checks(res)
            ck = cks["twisted-coproduct-conjugation"]
            assert ck.ok == all(new), (H.name, K, name)
            assert ck.witness == (None if all(new) else H.labels[new.index(False)])
            assert cks["associator-pentagon"].ok == new_pent
            assert (name == "clean") == (all(new) and new_pent), (H.name, K, name)


def _two_product_conjugation(phi, i):
    """lhs Phi - Phi d0 at basis i on every host, commuting or not."""
    host = phi.host
    d = LegTensor.from_element(host, {i: host.ring.one()}).coproduct_leg(0)
    return d.coproduct_leg(1).mul(phi).sub(phi.mul(d.coproduct_leg(0)))


def _outcomes(R):
    return [(ck.id, ck.status, ck.residual_term_count, ck.witness) for ck in verify_quasi(R)]


def _conjugated_coproduct(H, F):
    """{i: F D(b_i) F^-1}, formed here by two products per basis element."""
    out = {}
    for i, cell in H.coproduct.items():
        ti = F.value.mul(LegTensor(H, 2, dict(cell))).mul(F.inverse)
        out[i] = dict(ti.entries())
    return out


def test_commuting_twists_keep_the_coproduct_and_agree_with_two_products(monkeypatch):
    # dual[S3] commutes and does not cocommute; each outcome of verify_quasi
    # (id, status, residual, witness) equals the one of lhs Phi - Phi d0,
    # clean, with a term added to a twisted coproduct cell and with a fault
    # in phi
    rng = random.Random(2700)
    ring2, ring3 = ScalarRing(hbar_order=2), ScalarRing(hbar_order=3)
    for H in (
        group_algebra(cyclic_group(3), ring2),
        group_algebra(elementary_abelian_2(3), ring2),
        dual_group_hopf(elementary_abelian_2(2), ring3),
        dual_group_hopf(S3, ring2),
    ):
        assert H.product_commutes()
        F = random_counital_two_cochain(H, rng)
        R = twist(H, F)
        assert R.twisted.coproduct == _conjugated_coproduct(H, F), H.name
        assert R.twisted.coproduct_pieces() is H.coproduct_pieces()
        assert R.twisted.coproduct is not H.coproduct
        faulted = _with_coproduct_fault(R.twisted, 1)
        cases = [
            ("clean", R),
            ("coproduct", QuasiHopfTwistResult(H, faulted, R.cochain, R.phi, None, None)),
            ("phi", _with_phi_fault(R)),
        ]
        for name, res in cases:
            got = _outcomes(res)
            with monkeypatch.context() as m:
                m.setattr(hopf_cochain, "conjugation_residual", _two_product_conjugation)
                want = _outcomes(res)
            assert got == want, (H.name, name)
            assert all(o[1] == "pass" for o in got) == (name == "clean"), (H.name, name)


def test_product_commutes_reads_the_table():
    assert not KS3.product_commutes() and not KP8.product_commutes()
    assert group_algebra(cyclic_group(3)).product_commutes()
    # upper triangular 2 x 2 matrices on 1, E11, E12: E11 E12 = E12 and
    # E12 E11 = 0, a cell on one side only
    one = Fraction(1)
    T2 = AlgebraPresentation(
        3, ["1", "E11", "E12"], ScalarRing(),
        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (0, 2): {2: one},
         (2, 0): {2: one}, (1, 1): {1: one}, (1, 2): {2: one}},
        [one, 0, 0],
    )
    assert not T2.product_commutes()


def test_declared_commutative_flag_is_not_trusted(monkeypatch):
    # k[S3] read from a document that declares it commutative: the table
    # says otherwise, so the twist still conjugates and verify_quasi reads
    # as on the honest host
    honest = with_series_ring(KS3, 2)
    doc = presentation_to_dict(honest)
    doc["commutative"] = True
    H = presentation_from_dict(doc)
    assert not H.commutative and not H.product_commutes()
    F = random_counital_two_cochain(honest, random.Random(11))
    R = twist(honest, F)
    want = [_outcomes(R)]
    want.append(_outcomes(QuasiHopfTwistResult(
        honest, _with_coproduct_fault(R.twisted, 1), F, R.phi, None, None)))
    FH = HopfCochain(H, 2, F.value.over(H), F.inverse.over(H), _trusted=True)
    RH = twist(H, FH)
    assert RH.twisted.coproduct == R.twisted.coproduct != H.coproduct
    got = [_outcomes(RH)]
    got.append(_outcomes(QuasiHopfTwistResult(
        H, _with_coproduct_fault(RH.twisted, 1), FH, RH.phi, None, None)))
    assert got == want
    # a commuting table read from a document that declares it
    # noncommutative still keeps its coproduct
    doc = presentation_to_dict(group_algebra(cyclic_group(3), SER))
    doc["commutative"] = False
    plain = presentation_from_dict(doc)
    assert plain.commutative and plain.product_commutes()
    F = random_counital_two_cochain(plain, random.Random(11))
    calls = _count_muls(monkeypatch)
    R = twist(plain, F)
    assert len(calls) == 3
    assert R.twisted.coproduct == plain.coproduct
    assert R.twisted.coproduct_pieces() is plain.coproduct_pieces()


def test_pentagon_failure_names_first_residual_key():
    # phi = 1 corrupted to x (x) 1 (x) 1 with x = 1 + 2g in k[Z2]: on the
    # first two legs D0 D2 D4 is x^2 (x) x and D3 D1 is (x (x) 1) D(x), so
    # the residual 4 + 2 g(x)1 + 6 1(x)g + 6 g(x)g has 4 terms, the first at
    # e(x)e(x)e(x)e
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
    assert gauge_act(g, Fc).value.eq(aF.value)
    u = unit_cochain(KS3, 1)
    assert gauge_act(u, Fc).value.eq(Fc.value)
    # coboundaries lie in the kernel and stay there under gauge moves
    assert cocycle_report(Fc).ok
    assert cocycle_report(aF).ok
    assert equivariant_twist_check(Fc)


def _pbw_pair(kappa):
    h = Series.hbar(3)
    expo = PBWTensor(
        kappa, 3, 2, {((1, 0, 0), (0, 0, 0)): h, ((0, 0, 0), (0, 1, 0)): h}
    )
    return pbw_exp(expo), pbw_exp(expo.neg()), PBWTensor.unit(kappa, 3, 3)


def _differential_cases():
    rng = random.Random(43)
    h = random_invertible_element_cochain(KS3, rng)
    d1 = hopf_coboundary(h)
    yield "k[S3] arity 1", h.value, h.inverse, LegTensor.unit(KS3, 2)
    yield "k[S3] arity 2", d1.value, d1.inverse, LegTensor.unit(KS3, 3)
    kZ23h = group_algebra(elementary_abelian_2(3), SER)
    F = random_counital_two_cochain(kZ23h, rng)
    yield "k[Z2^3]+h", F.value, F.inverse, LegTensor.unit(kZ23h, 3)
    kdZ22 = dual_group_hopf(elementary_abelian_2(2))
    c = random_pointwise_cochain(kdZ22, rng, 2)
    yield "dual[Z2^2]", c.value, c.inverse, LegTensor.unit(kdZ22, 3)
    for kappa in (1, -1):
        yield ("pbw kappa=%d" % kappa,) + _pbw_pair(kappa)


def test_value_only_coboundary_matches_the_pair():
    for name, v, inv, unit in _differential_cases():
        val, dinv = coboundary_pair(v, inv)
        assert coboundary(v, inv).eq(val), name
        assert val.mul(dinv).eq(unit) and dinv.mul(val).eq(unit), name


def _count_muls(monkeypatch):
    calls = []
    mul = LegTensor.mul

    def counted(self, other):
        calls.append(self.arity)
        return mul(self, other)

    monkeypatch.setattr(LegTensor, "mul", counted)
    return calls


def test_dsquared_forms_no_inverse_it_throws_away(monkeypatch):
    # a passing 1-cochain: 2 products for X = d(c) alone, then its even
    # faces D0 D2 (1) against its odd faces D3 D1 (1), and no inverse of X
    KD4 = group_algebra(dihedral_4())
    c = random_invertible_element_cochain(KD4, random.Random(5))
    calls = _count_muls(monkeypatch)
    assert dsquared(c).eq(LegTensor.unit(KD4, 3))
    assert calls == [2, 2, 3, 3]
    # a passing invariant 2-cochain over a series host: X = d(c) (3), even
    # faces D0 D2 D4 (2) against odd faces D3 D1 (1)
    kS3h = group_algebra(S3, SER)
    c = random_invariant_two_cochain(kS3h, random.Random(23), group=S3)
    del calls[:]
    assert dsquared(c).eq(LegTensor.unit(kS3h, 4))
    assert calls == [3, 3, 3, 4, 4, 4]
    # the Pauli cochain fails: X (3) and its faces (3), then X^-1 (3) and
    # the even faces times D1(X^-1) D3(X^-1) (2), one product more than
    # forming d(c) and its inverse before d(X)
    lab = KP8.labels
    iX, iZ = lab.index("[iX]"), lab.index("[iZ]")
    c = HopfCochain(
        KP8, 2,
        LegTensor(KP8, 2, {(iX, iZ): Fraction(1)}),
        LegTensor(KP8, 2, {(P8.inv[iX], P8.inv[iZ]): Fraction(1)}),
    )
    del calls[:]
    assert not dsquared(c).eq(LegTensor.unit(KP8, 4))
    assert len(calls) == 11


# ---------------------------------------------------------------------------
# d^2 decided on faces, against the formula it replaced: d(X) for X = d(c),
# formed with the inverse of X


def _old_dsquared(c):
    return coboundary(*coboundary_pair(c.value, c.inverse))


def _grouplike_d(G, t):
    """d of a group-like cochain t = t_1 (x) ... (x) t_n over k[G], worked out
    in the group: each face D_i is a tuple (the identity on a new first or
    last leg, or leg i-1 doubled), and d(t) is the legwise product of the
    even faces of t in increasing order, then the odd faces of t^-1."""
    e = G.identity
    n = len(t)

    def face(u, i):
        if i == 0:
            return (e,) + u
        if i == n + 1:
            return u + (e,)
        return u[:i] + u[i - 1:]

    t_inv = tuple(G.inv[x] for x in t)
    out = (e,) * (n + 1)
    for u, parity in ((t, 0), (t_inv, 1)):
        for i in range(parity, n + 2, 2):
            out = tuple(G.mul(x, y) for x, y in zip(out, face(u, i)))
    return out


def _monomials(G, rng, count):
    """Seeded monomials a (x) b whose d^2, re-derived in the group, is not
    the unit, with that closed form."""
    pairs = [(a, b) for a in range(G.order) for b in range(G.order)]
    rng.shuffle(pairs)
    unit = (G.identity,) * 4
    for a, b in pairs:
        key = _grouplike_d(G, _grouplike_d(G, (a, b)))
        if key != unit:
            yield a, b, key
            count -= 1
            if not count:
                return


def _dsquared_cases(K, rng):
    """(name, cochain) pairs: over each of the hopf-cochain suite's hosts,
    exact at K = 0 and over the order-K series ring otherwise, two
    1-cochains and two 2-cochains; over a group algebra a product of
    1-cochains, legwise, and over a series host a counital and an invariant
    2-cochain; pointwise ones over the duals."""
    hosts = [
        ("k[Z2^3]", group_algebra(elementary_abelian_2(3)), None),
        ("k[S3]", KS3, S3),
        ("k[D4]", group_algebra(dihedral_4()), None),
        ("k[P8]", KP8, None),
        ("dual[Z2^2]", dual_group_hopf(elementary_abelian_2(2)), None),
    ]
    if K == 0:
        hosts += [("dual[S3]", dual_group_hopf(S3), None), ("dual[D4]", dual_group_hopf(dihedral_4()), None)]
    for label, H0, grp in hosts:
        H = H0 if K == 0 else with_series_ring(H0, K)
        pointwise = label.startswith("dual")
        name = "%s K=%d" % (label, K)
        for arity in (1, 2):
            for t in range(2):
                if pointwise and K == 0:
                    c = random_pointwise_cochain(H, rng, arity)
                elif arity == 1:
                    c = random_invertible_element_cochain(H, rng)
                elif K == 0:
                    a, b = (random_invertible_element_cochain(H, rng) for _ in "ab")
                    c = HopfCochain(
                        H, 2,
                        LegTensor.outer(H, [dict(a.value.data), dict(b.value.data)]),
                        LegTensor.outer(H, [dict(a.inverse.data), dict(b.inverse.data)]),
                        _trusted=True,
                    )
                elif t == 0:
                    c = random_counital_two_cochain(H, rng)
                elif grp is not None or H.product_commutes():
                    c = random_invariant_two_cochain(H, rng, group=grp)
                else:
                    continue
                yield "%s arity %d #%d" % (name, arity, t), c


def _assert_dsquared_agrees(name, c):
    unit = LegTensor.unit(c.host, c.arity + 2)
    got, want = dsquared(c), _old_dsquared(c)
    assert got.eq(want), name
    rg, rw = got.sub(unit), want.sub(unit)
    assert (rg.term_count(), key_witness(rg)) == (rw.term_count(), key_witness(rw)), name
    # the faces decide d^2 as the inverse form does
    even, odd = hopf_cochain._faces(coboundary(c.value, c.inverse))
    assert even.eq(odd) == want.eq(unit), name
    return want.eq(unit)


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_dsquared_on_faces_agrees_with_the_inverse_form(K):
    rng = random.Random(3500 + K)
    verdicts = set()
    for name, c in _dsquared_cases(K, rng):
        verdicts.add(_assert_dsquared_agrees(name, c))
    # some of the cochains are not invariant, and their d^2 is not the unit
    # unless K = 1: the hbar term of d^2(1 + hbar u) is the linear d^2 of u
    assert verdicts == ({True} if K == 1 else {True, False})


def test_dsquared_on_faces_agrees_on_counterexamples():
    lab = KP8.labels
    iX, iZ = lab.index("[iX]"), lab.index("[iZ]")
    pauli = HopfCochain(
        KP8, 2,
        LegTensor(KP8, 2, {(iX, iZ): Fraction(1)}),
        LegTensor(KP8, 2, {(P8.inv[iX], P8.inv[iZ]): Fraction(1)}),
    )
    assert not _assert_dsquared_agrees("pauli", pauli)
    rng = random.Random(3600)
    D4 = dihedral_4()
    for G, H in ((S3, KS3), (D4, group_algebra(D4)), (P8, KP8)):
        for a, b, key in _monomials(G, rng, 4):
            c = HopfCochain(
                H, 2,
                LegTensor(H, 2, {(a, b): Fraction(1)}),
                LegTensor(H, 2, {(G.inv[a], G.inv[b]): Fraction(1)}),
            )
            name = "%s %s (x) %s" % (H.name, G.labels[a], G.labels[b])
            assert not _assert_dsquared_agrees(name, c)
            assert dsquared(c).eq(LegTensor(H, 4, {key: Fraction(1)})), name


def test_twist_and_verify_quasi_product_count(monkeypatch):
    # dual[Z2^2] has a commuting product, so F commutes with every D(h):
    # twist keeps the host's coproduct (no product) and forms phi = d(F)
    # alone (3); verify_quasi: lhs equals d0 at each of the 4 basis
    # elements, the coproduct being coassociative, so (lhs - d0) phi is
    # never formed (0), and the pentagon D0 D2 D4 against D3 D1 (3); the
    # module law reads phi^-1, which is formed then (3)
    rng = random.Random(37)
    mod = dual_action_module(elementary_abelian_2(2), SER)
    F = random_counital_two_cochain(mod.host, rng)
    calls = _count_muls(monkeypatch)
    R = twist(mod.host, F, mod)
    assert len(calls) == 3
    for ck in verify_quasi(R):
        assert ck.ok, ck.id
    assert len(calls) == 9
    del calls[:]
    R = twist(mod.host, F)
    assert len(calls) == 3
    for ck in verify_quasi(R):
        assert ck.ok, ck.id
    assert len(calls) == 6
    # phi^-1 was never formed: reading it now forms it, once for both hosts
    inv = R.phi_twisted().inverse
    assert len(calls) == 9
    assert R.phi.inverse.over(R.twisted).eq(inv) and len(calls) == 9


def test_noncommutative_twist_still_conjugates_product_count(monkeypatch):
    # k[S3] does not commute: twist forms F D(h) F^-1 for each of the 6
    # basis elements (12) and phi = d(F) (3); verify_quasi forms lhs phi
    # and phi d0 for each basis element (12) and the pentagon (3)
    H = with_series_ring(KS3, 2)
    F = random_counital_two_cochain(H, random.Random(37))
    calls = _count_muls(monkeypatch)
    R = twist(H, F)
    assert len(calls) == 15
    for ck in verify_quasi(R):
        assert ck.ok, ck.id
    assert len(calls) == 30


def _coboundary_on_swapped_legs(monkeypatch):
    """Fault: D_i applies the coproduct at leg n-i instead of leg i-1."""
    delta_i = cochain_engine._delta_i

    def swapped(t, i):
        n = t.arity
        return t.coproduct_leg(n - i) if 1 <= i <= n else delta_i(t, i)

    monkeypatch.setattr(cochain_engine, "_delta_i", swapped)


def test_cocycle_failure_names_first_residual_key(monkeypatch):
    h1 = random_invertible_element_cochain(KS3, random.Random(41))
    Fc = hopf_coboundary(h1)
    ck = cocycle_report(Fc)
    assert ck.ok and ck.witness is None
    _coboundary_on_swapped_legs(monkeypatch)
    ck = cocycle_report(Fc)
    assert (ck.status, ck.residual_term_count) == ("fail", 216)
    assert ck.witness == "([e],[e],[e])"


def test_gauge_equivariance_failure_names_first_residual_key(monkeypatch):
    rng = random.Random(41)
    g = random_invertible_element_cochain(KS3, rng)
    Fc = hopf_coboundary(random_invertible_element_cochain(KS3, rng))
    ck = gauge_equivariance_report(g, Fc)
    assert ck.ok and ck.witness is None

    def without_coproduct_factor(g, F):
        """Fault: (g x g) F, dropping the Delta(g^-1) factor."""
        gv, gi = dict(g.value.data), dict(g.inverse.data)
        gg = LegTensor.outer(F.host, [gv, gv])
        gginv = LegTensor.outer(F.host, [gi, gi])
        return HopfCochain(
            F.host, 2, gg.mul(F.value), F.inverse.mul(gginv), _trusted=True
        )

    monkeypatch.setattr(hopf_cochain, "gauge_act", without_coproduct_factor)
    ck = gauge_equivariance_report(g, Fc)
    assert (ck.status, ck.residual_term_count) == ("fail", 201)
    assert ck.witness == "([e],[e],[e])"


# ---------------------------------------------------------------------------
# compare first, subtract only on a difference: each residual check against
# the subtract-first form it replaced

Z3 = root_of_unity(1, 3)


def _cochain_hosts(K):
    """The hopf-cochain suite's hosts, exact at K = 0, else over the order-K
    series ring."""
    for H in (
        group_algebra(cyclic_group(3)),
        group_algebra(elementary_abelian_2(2)),
        KS3,
        group_algebra(dihedral_4()),
        dual_group_hopf(elementary_abelian_2(2)),
    ):
        yield H if K == 0 else with_series_ring(H, K)


def _unit_plus(H, s, i, c):
    """s times the unit plus c times basis i, as a sparse vector."""
    vec = {k: s * v for k, v in H.elem_unit().items()}
    accumulate(vec, i, H.ring.coerce(c))
    return vec


def _counital_cochain(H, rng, root=False):
    """A counital invertible 2-cochain: random_counital_two_cochain over a
    series host; over an exact one the coboundary of a 1-cochain h scaled to
    counit 1, so that d(h) is counital.  With root, a z_3 coefficient enters
    h or the perturbation, so the cochain lies at conductor 3."""
    if H.ring.is_series:
        if not root:
            return random_counital_two_cochain(H, rng)
        u = LegTensor(H, 2, {(1, 2): Z3, (2, 1): Fraction(rng.randint(1, 3))})
        F = LegTensor.unit(H, 2).add(counital_projection(u).scale(Series.hbar(H.ring.hbar_order)))
        return HopfCochain(H, 2, F)
    h = HopfCochain.from_element(H, _unit_plus(H, 3, 1, Z3 if root else rng.randint(1, 2)))
    eps = H.elem_counit(dict(h.value.data))
    h = HopfCochain(H, 1, h.value.scale(1 / eps), h.inverse.scale(eps), _trusted=True)
    return hopf_coboundary(h)


def _ref_counital(c):
    unit = LegTensor.unit(c.host, c.arity - 1)
    bad, wit = 0, None
    for leg in range(c.arity):
        r = c.value.counit_leg(leg).sub(unit).term_count()
        if r:
            bad += r
            wit = wit or "leg %d" % leg
    return bad, wit


def _ref_invariant(c):
    host = c.host
    bad, wit = 0, None
    for i in range(host.dim):
        d = hopf_cochain.iterated_coproduct(host, {i: host.ring.one()}, c.arity)
        r = c.value.mul(d).sub(d.mul(c.value)).term_count()
        if r:
            bad += r
            wit = wit or host.labels[i]
    return bad, wit


def _ref_cocycle(F):
    res = coboundary(F.value, F.inverse).sub(LegTensor.unit(F.host, F.arity + 1))
    return res.term_count(), key_witness(res)


def _ref_conjugation(phi, i):
    host = phi.host
    d = LegTensor.from_element(host, {i: host.ring.one()}).coproduct_leg(0)
    lhs, d0 = d.coproduct_leg(1), d.coproduct_leg(0)
    if host.product_commutes():
        return lhs.sub(d0).mul(phi)
    return lhs.mul(phi).sub(phi.mul(d0))


def _ref_pentagon(phi):
    D = [cochain_engine._delta_i(phi, i) for i in range(5)]
    return D[0].mul(D[2]).mul(D[4]).sub(D[3].mul(D[1]))


def _ref_gauge(g, F):
    gv, gi = dict(g.value.data), dict(g.inverse.data)
    aF = gauge_act(g, F)
    lhs = coboundary(aF.value, aF.inverse)
    g3 = LegTensor.outer(F.host, [gv, gv, gv])
    g3inv = LegTensor.outer(F.host, [gi, gi, gi])
    res = lhs.sub(g3.mul(coboundary(F.value, F.inverse)).mul(g3inv))
    return res.term_count(), key_witness(res)


def _seen(t):
    """A tensor as it reads: its term count, its first key's labels and its
    values."""
    return t.term_count(), key_witness(t), sorted(t.data.items())


def _report(ck):
    return ck.residual_term_count, ck.witness


def _with_term(t, key, c):
    """t plus c on the basis key, formed without touching t's pieces."""
    return t.add(LegTensor(t.host, t.arity, {key: c}))


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_compare_first_checks_agree_with_subtract_first(K, monkeypatch):
    # each comparison of two sides is one LegTensor.sub, which merges at
    # most once, whether they lie at one conductor or at two, and not at
    # all when they hold equal pieces at one conductor
    merges, per_comparison = [0], []
    add, sub = LegTensor._add, LegTensor.sub

    def counting_add(self, other, negate):
        merges[0] += 1
        return add(self, other, negate)

    def counted(lhs, rhs):
        before = merges[0]
        out = sub(lhs, rhs)
        per_comparison.append(merges[0] - before)
        return out

    monkeypatch.setattr(LegTensor, "_add", counting_add)
    monkeypatch.setattr(LegTensor, "sub", counted)
    rng = random.Random(3100 + K)
    for H in _cochain_hosts(K):
        one = H.ring.one()
        last = H.dim - 1
        for root in (False, True):
            F = _counital_cochain(H, rng, root)
            R = twist(H, F)
            phi = R.phi_twisted().value
            coefficient = H.ring.coerce(Z3 if root else Fraction(2))
            # phi with one extra term, at a key of its own or over one it
            # has, and phi over the twisted host with a term added to the
            # coproduct of b_1, which makes the two sides differ over a
            # commuting product too
            faulted = _with_coproduct_fault(R.twisted, 1)
            phis = [
                phi,
                _with_term(phi, (0, 1, last), coefficient),
                _with_term(phi, (0, 0, 0), one),
                phi.over(faulted),
            ]
            for p in phis:
                for i in range(H.dim):
                    got, want = conjugation_residual(p, i), _ref_conjugation(p, i)
                    assert _seen(got) == _seen(want), (H.name, K, root, i)
                assert _seen(pentagon_residual(p)) == _seen(_ref_pentagon(p)), (H.name, K, root)
            # counital and invariant: F, F off the counit, a noncommuting pair
            cochains = [
                F,
                HopfCochain.deferred(H, 2, _with_term(F.value, (0, last), coefficient), None),
                HopfCochain.deferred(H, 2, LegTensor(H, 2, {(1, last): coefficient}), None),
            ]
            for c in cochains:
                assert _report(hopf_cochain.counital_report(c)) == _ref_counital(c), (H.name, K)
                assert _report(hopf_cochain.invariant_report(c)) == _ref_invariant(c), (H.name, K)
            # cocycle: d(h) is one, a twisting cochain is one only over an
            # exact host, and F (x (x) 1) is not
            x = HopfCochain.from_element(H, _unit_plus(H, 1, 1, coefficient))
            unit = H.elem_unit()
            x2 = LegTensor.outer(H, [dict(x.value.data), unit])
            x2inv = LegTensor.outer(H, [dict(x.inverse.data), unit])
            bad = HopfCochain(H, 2, F.value.mul(x2), x2inv.mul(F.inverse), _trusted=True)
            for c in (F, bad):
                assert _report(cocycle_report(c)) == _ref_cocycle(c), (H.name, K, root)
            # gauge: a 1-cochain and one whose supplied inverse is wrong
            g = HopfCochain.from_element(H, _unit_plus(H, 1, last, coefficient))
            wrong = HopfCochain(H, 1, g.value, g.value, _trusted=True)
            for gg in (g, wrong):
                assert _report(gauge_equivariance_report(gg, F)) == _ref_gauge(gg, F), (H.name, K)
    assert set(per_comparison) == {0, 1}


def test_passing_checks_subtract_nothing_and_read_no_values(monkeypatch):
    # at conductor 1 a passing check's sub compares pieces and forms no
    # difference (no merge, LegTensor._add); over a noncommuting product the twisted coproduct stays
    # integer pieces, so twist and verify_quasi build no value; the gauge
    # action forms Delta(g) and g (x) g on pieces, and reads no value either
    from hopftwist import multilinear

    subs, values = [], []
    add, phase_values = LegTensor._add, multilinear.phase_values
    rng = random.Random(3200)
    for K in (0, 2):
        for H in _cochain_hosts(K):
            F = _counital_cochain(H, rng)
            g = HopfCochain.from_element(H, _unit_plus(H, 2, 1, 1))
            del subs[:], values[:]
            with monkeypatch.context() as m:
                m.setattr(LegTensor, "_add", lambda s, o, neg: (neg and subs.append(H.name)) or add(s, o, neg))
                m.setattr(multilinear, "phase_values", lambda *a: values.append(H.name) or phase_values(*a))
                R = twist(H, F)
                outcomes = verify_quasi(R)
                if not H.product_commutes():
                    assert values == [], H.name
                outcomes.append(hopf_cochain.counital_report(F))
                outcomes.append(cocycle_report(hopf_coboundary(g)))
                before = len(values)
                outcomes.append(gauge_equivariance_report(g, F))
                assert len(values) == before, H.name
                if H.product_commutes():
                    outcomes.append(hopf_cochain.invariant_report(F))
            assert all(ck.ok for ck in outcomes), (H.name, [ck.id for ck in outcomes if not ck.ok])
            assert subs == [], H.name


def _value_route(H, F):
    """The twisted coproduct as it was formed before: the entries of F D(b_i)
    F^-1 as values, loaded into a presentation that makes its pieces from
    them."""
    cop = {}
    for i, cell in H.coproduct.items():
        ti = F.value.mul(LegTensor(H, 2, dict(cell))).mul(F.inverse)
        cop[i] = dict(ti.entries())
    return HopfPresentation(H.dim, H.labels, H.ring, H.mult, H.unit, cop, H.counit)


def _cells(cells):
    pieces, N, relabel = cells
    slot = None if relabel is None else (relabel.codes, relabel.one, relabel.full)
    return pieces, N, slot


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_twisted_coproduct_pieces_agree_with_the_value_route(K):
    rng = random.Random(3300 + K)
    for H0 in (KS3, group_algebra(dihedral_4()), KP8):
        H = H0 if K == 0 else with_series_ring(H0, K)
        assert not H.product_commutes()
        cochains = [unit_cochain(H, 2), _counital_cochain(H, rng), _counital_cochain(H, rng, root=True)]
        for F in cochains:
            tw = twist(H, F).twisted
            want = _value_route(H, F)
            pieces = _cells(tw.coproduct_pieces())
            assert pieces == _cells(want.coproduct_pieces()), (H.name, K)
            if F.value.eq(LegTensor.unit(H, 2)):
                assert pieces[2] is not None and pieces[2] == _cells(H.coproduct_pieces())[2]
            assert tw.coproduct == want.coproduct, (H.name, K)
            assert _cells(tw.coproduct_pieces()) == pieces, (H.name, K)
            assert tw.coproduct_cocommutes() == want.coproduct_cocommutes()


def test_coproduct_tensors_merge_at_the_lcm_of_their_conductors():
    # tensors at conductors 3, 4 and 1 meet at 12, each exponent scaled
    z4 = root_of_unity(1, 4)
    tensors = {
        0: LegTensor(KS3, 2, {(0, 0): Fraction(1), (1, 2): Z3}),
        1: LegTensor(KS3, 2, {(1, 0): z4, (2, 1): Z3 * z4 + Fraction(1, 2)}),
        2: LegTensor(KS3, 2, {(2, 2): Fraction(1, 2)}),
    }
    host = HopfPresentation(KS3.dim, KS3.labels, KS3.ring, KS3.mult, KS3.unit, {}, KS3.counit)
    host.set_coproduct_tensors(tensors)
    cop = {i: dict(t.entries()) for i, t in tensors.items()}
    want = HopfPresentation(KS3.dim, KS3.labels, KS3.ring, KS3.mult, KS3.unit, cop, KS3.counit)
    assert _cells(host.coproduct_pieces()) == _cells(want.coproduct_pieces())
    assert host.coproduct_pieces()[1] == 12
    assert host.coproduct == want.coproduct == cop


def _snapshot(t):
    pieces, N = t._phases()
    return {p: (dict(nums), den) for p, (nums, den) in pieces.items()}, N


def test_unit_products_and_leg_maps_leave_their_operands_alone():
    # a product with the unit may hand back its operand's piece dict, and a
    # leg map shares or moves pieces: no operand piece changes, even after
    # further products and sums of the results
    rng = random.Random(3400)
    for H in (KS3, with_series_ring(KS3, 2), dual_group_hopf(elementary_abelian_2(2))):
        for arity in (1, 2, 3):
            unit = LegTensor.unit(H, arity)
            keys = [tuple(rng.randrange(H.dim) for _ in range(arity)) for _ in range(5)]
            t = LegTensor(H, arity, {k: Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)) for k in keys})
            before = [_snapshot(t), _snapshot(unit)]
            outs = [t.mul(unit), unit.mul(t), t.coproduct_leg(0), t.counit_leg(arity - 1)]
            outs.append(t.leg_embed(range(1, arity + 1), arity + 1))
            for o in outs:
                o.mul(o).add(o).sub(o.scale(Fraction(1, 3)))
            assert [_snapshot(t), _snapshot(unit)] == before, (H.name, arity)
            assert outs[0].eq(t) and outs[1].eq(t)
    # over a group table the unit's product is the operand's dict itself
    t = LegTensor(KS3, 2, {(1, 2): Fraction(3), (4, 5): Fraction(-1)})
    prod = LegTensor.unit(KS3, 2).mul(t)
    assert prod._phases()[0][0, 0, 0][0] is t._phases()[0][0, 0, 0][0]


# ---------------------------------------------------------------------------
# d(X) = 1 in log form, against the faces: over a commuting group algebra
# with a series ring, _closed decides a closed X from the faces of log X and
# forms no face of X; every other X is decided by the faces as before


def _alternating_faces(B):
    """The additive coboundary sum over i of (-1)^i D_i(B)."""
    out = LegTensor(B.host, B.arity + 1, {})
    for i in range(B.arity + 2):
        face = cochain_engine._delta_i(B, i)
        out = out.sub(face) if i % 2 else out.add(face)
    return out


def _exp_hbar(T):
    """exp(hbar T) over T's series host, the sum of (hbar T)^k / k! to K."""
    K = T.host.ring.hbar_order
    term = out = LegTensor.unit(T.host, T.arity)
    hT = T.scale(Series.hbar(K))
    for k in range(1, K + 1):
        term = term.mul(hT).scale(Fraction(1, k))
        out = out.add(term)
    return out


def _random_tensor(H, rng, arity, terms, root=False):
    entries = {}
    for _ in range(terms):
        key = tuple(rng.randrange(H.dim) for _ in range(arity))
        accumulate(entries, key, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)))
    if root:
        accumulate(entries, (1,) * arity, Z3)
    return LegTensor(H, arity, entries)


def _log_form_cases(H, rng, arity):
    """(name, X, closed) over a commuting group algebra H with a series
    ring: X = exp(hbar dB) for random B, closed by construction; that X
    times 1 + hbar^2 b for a basis key b off the unit, not closed; and
    d(F) for random F, closed as H commutes: a twisting cochain at arity 3,
    1 + hbar u for a 1-tensor u at arity 2."""
    K = H.ring.hbar_order
    unit = LegTensor.unit(H, arity)
    for t in range(2):
        B = _random_tensor(H, rng, arity - 1, 3, root=(t == 1 and H.dim == 3))
        X = _exp_hbar(_alternating_faces(B))
        yield "exp #%d" % t, X, True
        b = tuple(rng.randrange(H.dim) for _ in range(arity))
        b = b if any(b) else (1,) + b[1:]
        bump = unit.add(LegTensor(H, arity, {b: Series.hbar(K, 2)}))
        yield "exp * (1 + hbar^2 b) #%d" % t, X.mul(bump), False
        if arity == 3:
            F = random_counital_two_cochain(H, rng)
        else:
            u = _random_tensor(H, rng, 1, 3)
            F = HopfCochain(H, 1, LegTensor.unit(H, 1).add(u.scale(Series.hbar(K))))
        yield "d(F) #%d" % t, coboundary(F.value, F.inverse), True


def _log_form_hosts():
    for G in (cyclic_group(3), elementary_abelian_2(2), elementary_abelian_2(3)):
        for K in (2, 3):
            yield with_series_ring(group_algebra(G), K)


@pytest.mark.parametrize("arity", [2, 3])
def test_closed_in_log_form_agrees_with_the_faces(arity):
    rng = random.Random(4300 + arity)
    seen = set()
    for H in _log_form_hosts():
        for name, X, closed in _log_form_cases(H, rng, arity):
            label = (H.name, arity, name)
            even, odd = cochain_engine._faces(X)
            assert even.eq(odd) == closed, label
            logs = hopf_cochain._log_faces(X)
            assert logs is not None, label
            assert logs[0].eq(logs[1]) == closed, label
            got, faces = hopf_cochain._closed(X)
            assert got == closed, label
            if closed:
                # the log form decided, and no face of X was formed
                assert faces is None, label
            else:
                assert faces[0].eq(even) and faces[1].eq(odd), label
            seen.add(closed)
    assert seen == {True, False}


def _unit_two_host():
    """k[Z2^2] over the order-2 series ring with its unit declared as 2 e:
    the table is a group table whose identity is e, with coefficient 1."""
    H = with_series_ring(group_algebra(elementary_abelian_2(2)), 2)
    return HopfPresentation(
        H.dim, H.labels, H.ring, H.mult, [2 * v for v in H.unit], H.coproduct,
        H.counit, name="unit-2e",
    )


def _idempotent_monoid_host():
    """k[{e, x}] with x x = x over the order-2 series ring, x group-like: a
    commuting permutation table with a unit that is no group table."""
    one = Fraction(1)
    return HopfPresentation(
        2, ["e", "x"], SER,
        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {1: one}},
        [one, 0], {0: {(0, 0): one}, 1: {(1, 1): one}}, [one, one], name="monoid",
    )


def _gated_cases(rng):
    """(name, X) that the log form must leave to the faces: d of a sample
    over hosts where some D_i is not a unital algebra map that relabels
    keys, or whose table is no group table, or whose ring is exact; 1 +
    hbar u over a group table whose declared unit is 2 e, which is no
    unit, so X is formed with no inverse; and over a host that takes the
    log form, X = X_0 exp(hbar dB) with X_0 off the unit: the closed
    group-like a (x) e (x) c, and 2 (x) 1 (x) 1, whose d is 2."""
    Z22 = elementary_abelian_2(2)
    for H in (
        with_series_ring(KS3, 2),
        with_series_ring(group_algebra(dihedral_4()), 2),
        dual_group_hopf(Z22, SER),
        group_algebra(elementary_abelian_2(3)),
        _with_coproduct_fault(with_series_ring(group_algebra(Z22), 2), 1),
        _idempotent_monoid_host(),
    ):
        if H.ring.hbar_order is None:
            c = random_invertible_element_cochain(H, rng)
        else:
            c = random_counital_two_cochain(H, rng)
        yield H.name, coboundary(c.value, c.inverse)
    H = _unit_two_host()
    yield H.name, LegTensor.unit(H, 3).add(_random_tensor(H, rng, 3, 4).scale(Series.hbar(2)))
    H = with_series_ring(group_algebra(elementary_abelian_2(3)), 2)
    E = _exp_hbar(_alternating_faces(_random_tensor(H, rng, 2, 3)))
    for X0 in (LegTensor(H, 3, {(5, 0, 3): Fraction(1)}), LegTensor.unit(H, 3).scale(2)):
        yield "X_0 = %s" % dict(X0.entries()), X0.mul(E)


def test_the_log_form_is_read_from_the_tables():
    # _closed decides each gated X on the faces, and its verdict is theirs
    verdicts = set()
    for name, X in _gated_cases(random.Random(4400)):
        assert hopf_cochain._log_faces(X) is None, name
        closed, faces = hopf_cochain._closed(X)
        even, odd = cochain_engine._faces(X)
        assert faces[0].eq(even) and faces[1].eq(odd), name
        assert closed == even.eq(odd), name
        verdicts.add(closed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("label", ["k[Z2^3]+h2", "k[Z3]+h3"])
def test_a_corrupted_associator_fails_the_pentagon_with_the_face_residual(label):
    G, K = (elementary_abelian_2(3), 2) if label == "k[Z2^3]+h2" else (cyclic_group(3), 3)
    H = with_series_ring(group_algebra(G), K)
    rng = random.Random(4500)
    R = twist(H, random_counital_two_cochain(H, rng))
    assert _checks(R)["associator-pentagon"].ok
    bump = LegTensor.unit(H, 3).add(LegTensor(H, 3, {(1, 0, 1): Series.hbar(K, 2)}))
    bad = HopfCochain.deferred(H, 3, R.phi.value.mul(bump), None)
    corrupted = QuasiHopfTwistResult(R.original, R.twisted, R.cochain, bad, None, None)
    phi = corrupted.phi_twisted().value
    logs = hopf_cochain._log_faces(phi)
    assert logs is not None and not logs[0].eq(logs[1])
    even, odd = cochain_engine._faces(phi)
    want = even.sub(odd)
    ck = _checks(corrupted)["associator-pentagon"]
    assert ck.status == "fail"
    assert (ck.residual_term_count, ck.witness) == (want.term_count(), key_witness(want))
    assert want.term_count() > 0

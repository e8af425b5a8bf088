"""The hopf-cochain suite body, hopf_cochain_checks: d^2 on random
invertible and invariant cochains over group algebras and a dual, twists
checked by verify_quasi over hbar-series hosts, two exact counterexamples
to d^2 = 1, and the octonions as a module-algebra twist.

It is a module of its own because every module it calls is on the cochain
workloads' import line (hopf_cochain, constructors), which must compile no
suite body.
"""

from fractions import Fraction

from .reporting import CheckOutcome, key_repr


def _counterexample(name, got, expect, unit, first_key):
    """d^2 must equal its closed form and differ from the unit; a failure
    names the side that broke."""
    if got.eq(unit):
        witness = "d^2 is the unit"
    elif not got.eq(expect):
        witness = first_key(got.sub(expect))
    else:
        witness = None
    return CheckOutcome.from_residual(name, 0 if witness is None else 1, witness)


def _pauli_counterexample():
    """Exact counterexample: d^2 of a non-invariant cochain on the Pauli
    group is -1 on the middle legs."""
    from .constructors import group_algebra, pauli_8
    from .hopf_cochain import HopfCochain, dsquared, key_witness
    from .multilinear import LegTensor

    P8 = pauli_8()
    KP8 = group_algebra(P8)
    lab = KP8.labels
    iX, iZ, m1 = lab.index("[iX]"), lab.index("[iZ]"), lab.index("[-1]")
    c = HopfCochain(
        KP8,
        2,
        LegTensor(KP8, 2, {(iX, iZ): Fraction(1)}),
        LegTensor(KP8, 2, {(P8.inv[iX], P8.inv[iZ]): Fraction(1)}),
    )
    return _counterexample(
        "pauli-counterexample",
        dsquared(c),
        LegTensor(KP8, 4, {(0, m1, m1, 0): Fraction(1)}),
        LegTensor.unit(KP8, 4),
        key_witness,
    )


def _pbw_counterexample():
    from .pbw import PBWTensor, heisenberg_counterexample

    lhs, rhs = heisenberg_counterexample(4, 1)
    return _counterexample(
        "pbw-counterexample", lhs, rhs, PBWTensor.unit(1, 4, 4), key_repr
    )


def hopf_cochain_checks(rng, order, theta):
    from .constructors import (
        dihedral_4,
        dual_group_hopf,
        elementary_abelian_2,
        group_algebra,
        pauli_8,
        symmetric_3,
    )
    from .hopf_cochain import (
        dsquared,
        random_counital_two_cochain,
        random_invariant_two_cochain,
        random_invertible_element_cochain,
        random_pointwise_cochain,
        twist,
        verify_quasi,
    )
    from .multilinear import LegTensor, with_series_ring

    S3 = symmetric_3()
    # each host with its group for the invariant cochains, and their trials
    hosts = [
        ("k[Z2^3]", group_algebra(elementary_abelian_2(3)), None, 7),
        ("k[S3]", group_algebra(S3), S3, 7),
        ("k[D4]", group_algebra(dihedral_4()), None, 0),
        ("k[P8]", group_algebra(pauli_8()), None, 0),
        ("dual[Z2^2]", dual_group_hopf(elementary_abelian_2(2)), None, 6),
    ]
    series = [with_series_ring(H, 2) for _, H, _, _ in hosts]

    def unit_trials(H, pointwise):
        unit3 = LegTensor.unit(H, 3)
        for t in range(20):
            if pointwise:
                c = random_pointwise_cochain(H, rng, 1)
            else:
                c = random_invertible_element_cochain(H, rng)
            if not dsquared(c).eq(unit3):
                yield 1, "trial %d" % t

    def invariant_trials(H, grp, count):
        unit4 = LegTensor.unit(H, 4)
        for t in range(count):
            c = random_invariant_two_cochain(H, rng, group=grp)
            if not dsquared(c).eq(unit4):
                yield 1, "trial %d" % t

    def twist_trials(H):
        for t in range(20):
            F = random_counital_two_cochain(H, rng)
            for ck in verify_quasi(twist(H, F)):
                if not ck.ok:
                    yield 1, "%s trial %d" % (ck.id, t)

    for label, H, _, _ in hosts:
        yield CheckOutcome.tally(
            "dsquared-unit:%s" % label, unit_trials(H, label.startswith("dual"))
        )
    for (label, _, grp, count), H in zip(hosts, series):
        if count:
            yield CheckOutcome.tally(
                "dsquared-invariant:%s+h" % label, invariant_trials(H, grp, count)
            )
    yield _pauli_counterexample()
    yield _pbw_counterexample()
    for (label, _, _, _), H in zip(hosts, series):
        yield CheckOutcome.tally("twist-quasi:%s" % label, twist_trials(H))
    yield _octonion_module_twist()


def _octonion_module_twist():
    """The octonions as a module-algebra twist over the dual of (Z/2)^3: the
    Fano cochain is counital and invariant, twists the table of k[(Z/2)^3]
    into the octonions', passes verify_quasi and is equivariant.  A failure
    names the first step that broke."""
    from .constructors import dual_action_module
    from .group_cohomology import fano_octonions
    from .hopf_cochain import (
        HopfCochain,
        counital_report,
        equivariant_twist_check,
        invariant_report,
        twist,
        verify_quasi,
    )

    G8, fano, Oct = fano_octonions()
    mod = dual_action_module(G8)
    valF = fano.tensor.over(mod.host)
    FF = HopfCochain(mod.host, 2, valF, valF)
    broken = []
    if not (counital_report(FF).ok and invariant_report(FF).ok):
        broken.append("counital-invariant")
    R = twist(mod.host, FF, mod)
    if R.twisted_algebra.mult != Oct.mult:
        broken.append("twisted-table")
    broken += [ck.id for ck in verify_quasi(R) if not ck.ok]
    if not equivariant_twist_check(FF, R):
        broken.append("equivariance")
    return CheckOutcome.from_residual(
        "octonion-module-twist", len(broken), broken[0] if broken else None
    )

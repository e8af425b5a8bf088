"""Named verification suites behind the command line interface.

Each suite body is a generator: it builds its objects from scratch and
yields each CheckOutcome where the check is decided, in report order.
run_suite, for one suite and for 'all' alike, gives each body a fresh
random.Random(seed), prefixes ids with the suite's name under 'all', and
is the one exception boundary: SolveTooCostly (one solve, one price, one
refusal: an exact solve over Q(z_N) priced past the cap) ends the run
(the CLI exits 2), and any other exception ends that suite with one
'error' outcome, id 'raised', witness '<ExceptionClass>: <message>',
after the checks it yielded; under 'all' the later suites still run.

A check's elapsed_ms is the time from the previous yield of the run (or
its start) to its own, set-up included.  The batteries a body yields from
(multilinear.verify_hopf, pbw.moyal_suite, the reports in constructors)
are generators too, so each of their checks carries its own time.
Reports are deterministic: the same seed yields byte-identical JSON, and
timing is only attached on request.

This module imports only errors, reporting and the standard library at
its top, so ``import hopftwist.cli`` loads four modules: cli, errors,
reporting and suites.  Each body and helper imports what it uses inside
the function: _check_theta loads grammar and scalars for a --theta, and
_render loads grammar for a failing check's witness.  So one ``verify
<suite>`` process loads, and without bytecode compiles, only modules whose
functions its suite calls: sharp-map adds weights alone, heis-torus
heis_torus and scalars, pbw-gcl and moyal cochain_engine, pbw and scalars
(tests/test_load_sets.py pins every set).  On a shared 2-core x86 machine,
compiling the five files ``import hopftwist.cli`` reads takes about 10 ms,
and all 18 of the package about 85 ms.
"""

import random
import time
from fractions import Fraction

from .errors import SchemaError, SolveTooCostly, UnknownSuite
from .reporting import CheckOutcome, SuiteReport, key_repr

DEFAULT_SEED = 1729

SUITE_NAMES = (
    "hopf-axioms",
    "group-cohomology",
    "octonions",
    "hopf-cochain",
    "pbw-gcl",
    "moyal",
    "graded-galois",
    "sharp-map",
    "heis-torus",
)


def _rand_heis(order, rng, terms=3, degree=None):
    from .heis_torus import HeisElement
    from .scalars import Series

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


def _rand_zak(order, degree, rng, terms=2):
    from .heis_torus import ZakElement
    from .scalars import Series

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


def _prefix(label, checks):
    return (c.renamed("%s:%s" % (label, c.id)) for c in checks)


def _render(x):
    """The grammar text of a scalar in a failing check's witness; grammar
    is loaded only when a check fails."""
    from .grammar import render

    return render(x)


# ---------------------------------------------------------------------------
# suite bodies


def _hopf_axioms(rng, order, theta):
    from .constructors import (
        cyclic_group,
        dihedral_4,
        dual_group_hopf,
        dual_pairing_report,
        elementary_abelian_2,
        group_algebra,
        pareigis_window,
        pauli_8,
        shuffle_bialgebra,
        symmetric_3,
        taft,
        word_pin_report,
        z2_dual_iso_report,
    )
    from .multilinear import verify_hopf

    groups = [
        ("Z2", cyclic_group(2)),
        ("Z3", cyclic_group(3)),
        ("Z2^3", elementary_abelian_2(3)),
        ("S3", symmetric_3()),
        ("D4", dihedral_4()),
        ("P8", pauli_8()),
    ]
    for name, G in groups:
        yield from _prefix("k[%s]" % name, verify_hopf(group_algebra(G)))
    for name, G in groups:
        yield from _prefix("dual[%s]" % name, verify_hopf(dual_group_hopf(G)))
    for p in (2, 3, 5):
        yield from _prefix("taft%d" % p, verify_hopf(taft(p)))
    B = shuffle_bialgebra(2, 4)
    yield from _prefix("shuffle", verify_hopf(B))
    yield from _prefix("shuffle", word_pin_report(B))
    yield from _prefix("pareigis4", verify_hopf(pareigis_window(4)))
    for name, G in groups:
        yield from _prefix("pairing[%s]" % name, dual_pairing_report(G))
    yield from _prefix("z2-dual-iso", z2_dual_iso_report())


def _group_cohomology(rng, order, theta):
    from .constructors import cyclic_group, elementary_abelian_2, symmetric_3
    from .group_cohomology import (
        TorusWindowAlgebra,
        fano_octonions,
        group_coboundary,
        is_cocycle,
        is_constant_one,
        is_unital,
        normalized,
        random_group_cochain,
        torus_cochain,
        twisted_group_algebra,
    )
    from .multilinear import verify_algebra
    from .scalars import root_of_unity

    hosts = [
        ("Z3", cyclic_group(3)),
        ("S3", symmetric_3()),
        ("Z2^2", elementary_abelian_2(2)),
    ]

    def ddelta(G, arity):
        for t in range(5):
            c = random_group_cochain(G, arity, rng)
            ck = is_constant_one(group_coboundary(group_coboundary(c)))
            if not ck.ok:
                yield 1, "trial %d at %s" % (t, ck.witness)

    for name, G in hosts:
        for arity in (1, 2):
            yield CheckOutcome.tally(
                "ddelta-trivial:%s:arity%d" % (name, arity), ddelta(G, arity)
            )
        c1 = random_group_cochain(G, 1, rng)
        out = is_cocycle(group_coboundary(c1))
        yield out.renamed("coboundary-closed:%s" % name)

    # a coboundary twist gives an associative algebra, the Fano cochain not;
    # normalizing F(e) = 1 makes dF unital, so the twist exists on every seed
    S3 = symmetric_3()
    dF = group_coboundary(normalized(random_group_cochain(S3, 1, rng)))
    _, assoc = verify_algebra(twisted_group_algebra(S3, dF))
    yield assoc.renamed("twist-assoc-iff-cocycle:pos")
    _, _, oct_algebra = fano_octonions()
    _, assoc = verify_algebra(oct_algebra)
    yield CheckOutcome.from_residual(
        "twist-assoc-iff-cocycle:neg", 0 if not assoc.ok else 1, "associative"
    )

    for theta_q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        tag = "torus-%d/%d" % (theta_q.numerator, theta_q.denominator)
        F, W = torus_cochain(theta_q, 5)
        failed = [o for o in is_cocycle(F, window=W) if not o.ok]
        yield CheckOutcome.from_residual(
            "%s:cocycle" % tag,
            len(failed),
            "%s at %s" % (failed[0].id, failed[0].witness) if failed else None,
        )
        u = is_unital(F)
        yield u.renamed("%s:unital" % tag)
        rep = TorusWindowAlgebra(F, W).commutation_report()
        yield rep.renamed("%s:commutation" % tag)
        want = root_of_unity(theta_q.numerator, 2 * theta_q.denominator)
        found = F.value((1, 0), (0, 1))
        ok = found == want
        yield CheckOutcome.from_residual(
            "%s:uv-phase-exact" % tag,
            0 if ok else 1,
            None if ok else _render(found),
        )


def _octonions(rng, order, theta):
    from .group_cohomology import (
        fano_octonions,
        group_coboundary,
        is_cocycle,
        is_unital,
        octonion_norm,
    )
    from .multilinear import verify_algebra

    _, fano, O = fano_octonions()
    one = Fraction(1)
    unit, quasi = verify_algebra(O, associator=O.associator)
    yield unit
    yield quasi.renamed("quasi-associativity-512")

    def alternativity():
        for a in range(8):
            x = {a: one}
            xx = O.elem_mul(x, x)
            for b in range(8):
                y = {b: one}
                left = O.elem_mul(x, O.elem_mul(x, y)) != O.elem_mul(xx, y)
                right = O.elem_mul(O.elem_mul(y, x), x) != O.elem_mul(y, xx)
                if left or right:
                    yield left + right, "(%s,%s)" % (O.labels[a], O.labels[b])

    def multiplicative(u, v):
        """N(uv) = N(u) N(v); a norm that is not real fails it."""
        try:
            return octonion_norm(O, O.elem_mul(u, v)) == octonion_norm(O, u) * octonion_norm(O, v)
        except ValueError:
            return False

    def norm_pairs():
        for a in range(8):
            for b in range(8):
                if not multiplicative({a: one}, {b: one}):
                    yield 1, "(%s,%s)" % (O.labels[a], O.labels[b])

    def norm_seeded():
        for t in range(100):
            u = {i: Fraction(rng.randint(-3, 3)) for i in range(8)}
            v = {i: Fraction(rng.randint(-3, 3)) for i in range(8)}
            u = {i: c for i, c in u.items() if c}
            v = {i: c for i, c in v.items() if c}
            if not multiplicative(u, v):
                yield 1, "trial %d" % t

    def sign_census():
        # 168 of the 512 signs are -1, among them m(1,2,4), and no other value
        table = group_coboundary(fano).table
        neg = sum(1 for v in table.values() if v == -1)
        if neg != 168:
            yield 1, "%d signs -1, not 168" % neg
        if table[(1, 2, 4)] != -1:
            yield 1, "m(1,2,4) = %s" % _render(table[(1, 2, 4)])
        other = next((k for k, v in table.items() if v not in (1, -1)), None)
        if other is not None:
            yield 1, "m(%d,%d,%d) = %s" % (*other, _render(table[other]))

    yield CheckOutcome.tally("alternativity-basis", alternativity())
    yield CheckOutcome.tally("norm-basis-pairs", norm_pairs())
    yield CheckOutcome.tally("norm-seeded-100", norm_seeded())
    yield CheckOutcome.tally("coboundary-sign-census", sign_census())

    # the Fano cochain must be unital and not closed; a failure names which
    unital = is_unital(fano)
    if is_cocycle(fano).ok:
        witness = "closed"
    else:
        witness = None if unital.ok else "not unital at %s" % unital.witness
    yield CheckOutcome.from_residual(
        "twist-not-closed", 0 if witness is None else 1, witness
    )


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


def _hopf_cochain(rng, order, theta):
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
        equivariant_twist_check,
        is_counital,
        is_invariant,
        twist,
        verify_quasi,
    )
    from .multilinear import LegTensor

    G8, fano, Oct = fano_octonions()
    mod = dual_action_module(G8)
    valF = LegTensor(mod.host, 2, dict(fano.table))
    FF = HopfCochain(mod.host, 2, valF, valF)
    broken = []
    if not (is_counital(FF) and is_invariant(FF)):
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


def _pbw_gcl(rng, order, theta):
    from .pbw import (
        PBWTensor,
        gcl_coassociator,
        gcl_cocycle_report,
        gcl_equivariance_report,
        pbw_exp,
    )
    from .scalars import Series, TauLaurent

    order = 4 if order is None else order

    def seeded():
        for t in range(5):
            th = Series(order, {k: rng.randint(-2, 2) for k in range(1, order + 1)})
            tp = Series(order, {k: rng.randint(-2, 2) for k in range(1, order + 1)})
            try:
                gcl_coassociator(th, tp, order)
            except RuntimeError:
                yield 1, "pair %d" % t

    yield CheckOutcome.tally("coassociator-seeded", seeded())

    th = Series(order, {1: Fraction(2, 3)})
    lam = th * TauLaurent.tau(-1)
    phi = gcl_coassociator(th, th, order)
    expected = pbw_exp(
        PBWTensor(-1, order, 3, {((1, 0, 0), (0, 0, 1), (0, 1, 0)): -(lam * lam)})
    )
    yield CheckOutcome.from_residual(
        "equal-angle-closed-form",
        0 if phi.eq(expected) else 1,
        key_repr(phi.sub(expected)),
    )

    z = Series.zero(order)
    resid = gcl_coassociator(z, z, order).sub(PBWTensor.unit(-1, order, 3))
    yield CheckOutcome.from_residual(
        "zero-angle-trivial", resid.term_count(), key_repr(resid)
    )

    th1 = Series(order, {1: 1})
    ck = gcl_cocycle_report(th1, order)
    yield CheckOutcome.from_residual(
        "twist-not-cocycle",
        0 if (not ck.ok and ck.residual_term_count > 0) else 1,
        "cocycle holds" if ck.ok else ck.witness,
    )
    ck2 = gcl_equivariance_report(th1, order)
    yield CheckOutcome.from_residual(
        "twist-not-equivariant",
        0 if (not ck2.ok and ck2.witness) else 1,
        "equivariance holds" if ck2.ok else ck2.witness,
    )
    ck = gcl_cocycle_report(z, order)
    if ck.ok:
        ck = gcl_equivariance_report(z, order)
    yield CheckOutcome.from_residual(
        "zero-angle-is-cocycle",
        0 if ck.ok else 1,
        None if ck.ok else "%s at %s" % (ck.id, ck.witness),
    )


def _moyal(rng, order, theta):
    from .pbw import bch_report, moyal_suite

    order = 5 if order is None else order
    yield from moyal_suite(order)
    for kappa in (1, -1):
        for o in range(2, 7):
            ck = bch_report(kappa, o)
            yield ck.renamed("kappa%+d:%s" % (kappa, ck.id))


def _graded_galois(rng, order, theta):
    from .graded import (
        battery,
        canonical_map,
        ideal_property_report,
        resolution_of_unity,
        smeb_check,
        strong_grading,
        window_battery,
        window_products_report,
    )

    for name, ga, expect in battery():
        n = ga.grading.order
        verdicts = {
            "strong-grading": strong_grading(ga).strong,
            "resolution-of-unity": all(
                resolution_of_unity(ga, g) is not None for g in range(n)
            ),
            "canonical-map": canonical_map(ga).bijective,
            "smeb": all(c.ok for g in range(n) for c in smeb_check(ga, g)),
        }
        yield _fourway("fourway:%s" % name, verdicts, expect)
    for name, ga, expect in window_battery():
        verdicts = {
            "strong-grading": strong_grading(ga).strong,
            "smeb": all(c.ok for g in (1, -1) for c in smeb_check(ga, g)),
        }
        yield _fourway("fourway-window:%s" % name, verdicts, expect)

    weak = [
        name
        for name, ga, _ in battery()
        if name.endswith("crossed") and not strong_grading(ga).strong
    ]
    yield CheckOutcome.from_residual(
        "crossed-products-strong", len(weak), ",".join(weak)
    )

    for name, ga, _ in battery():
        rep = ideal_property_report(ga)
        yield rep.renamed("ideal:%s:%s" % (name, rep.id))
    # component products span iff the window grading is strong
    for name, ga, expect in window_battery():
        rep = window_products_report(ga)
        yield CheckOutcome.from_residual(
            "window-products-iff-strong:%s" % name,
            0 if rep.ok == expect else 1,
            "component products span" if rep.ok else rep.witness,
        )


def _fourway(id, verdicts, expect):
    """One outcome for verdicts that must all equal expect; the witness
    names the ones that do not."""
    wrong = [name for name, v in verdicts.items() if v != expect]
    return CheckOutcome.from_residual(id, len(wrong), ",".join(wrong))


def _sharp_map(rng, order, theta):
    from itertools import product

    from .weights import sharp, sharp_laws

    tuples = [entries for n in range(1, 5) for entries in product(range(1, 5), repeat=n)]
    yield CheckOutcome.tally("laws-exhaustive-%d-tuples" % len(tuples), (
        (1, repr(entries)) for entries in tuples for ck in sharp_laws(entries) if not ck.ok
    ))

    frozen = [
        ((1, 2, 3), (6, 3, 2)),
        ((5, 7), (7, 5)),
        ((4,), (1,)),
    ]
    wrong = [inp for inp, out in frozen if sharp(inp) != out]
    yield CheckOutcome.from_residual(
        "frozen-examples", len(wrong), repr(wrong[0]) if wrong else None
    )


def _heis_torus(rng, order, theta):
    from .heis_torus import (
        HeisElement,
        alpha,
        assoc_residual,
        star,
        zak_act_left,
        zak_act_right,
        zak_pair,
    )
    from .scalars import Series, TauLaurent, series_exp

    order = 4 if order is None else order
    if theta is None:
        theta = Series.hbar(order)
    tau = TauLaurent.tau()

    U = HeisElement.monomial(order, m=1)
    V = HeisElement.monomial(order, 0, 0, 0, 1)
    uv = star(U, V, theta)
    vu = star(V, U, theta)
    resid = uv.sub(vu.scale(series_exp(theta * tau)))
    yield CheckOutcome.from_residual("uv-commutation", resid.term_count(), key_repr(resid))

    def reparam(n, th, a, b, c):
        # alpha_n(theta) makes (a, b, c) associative; no perturbation of it
        # keeps (U, t^n, V) so
        good = alpha(th, n)
        if not assoc_residual(a, b, c, th, good).is_zero():
            yield 1, "assoc at alpha_%d(theta)" % n
        mono = HeisElement.monomial(order, 0, n)
        for j in (1, 2, order):
            perturbed = good + Series.hbar(order, power=j)
            if assoc_residual(U, mono, V, th, perturbed).is_zero():
                yield 1, "perturbation h^%d unseen" % j

    for n in (-2, -1, 1, 2):
        for tag, terms in (("h", {1: 1}), ("h+h^2", {1: 1, 2: 1})):
            th = Series(order, terms)
            a = _rand_heis(order, rng, terms=2)
            b = _rand_heis(order, rng, terms=2, degree=n)
            c = _rand_heis(order, rng, terms=2)
            yield CheckOutcome.tally(
                "reparam-iff:n=%d:theta=%s" % (n, tag), reparam(n, th, a, b, c)
            )

    t5 = Series(5, {1: 1, 2: Fraction(1, 3)})
    yield CheckOutcome.tally("alpha-composition-order5", (
        (1, "j=%d,k=%d" % (j, k)) for j in (-2, 1, 3) for k in (-1, 2)
        if alpha(alpha(t5, k), j) != alpha(t5, j + k)
    ))

    for n in (1, 2):
        f = _rand_zak(order, n, rng)
        lhs = zak_act_left("UV", f, theta)
        rhs = zak_act_left("VU", f, theta)
        resid = lhs.sub(rhs.scale(series_exp(alpha(theta, n) * tau)))
        yield CheckOutcome.from_residual(
            "zak-left-commutation:n=%d" % n, resid.term_count(), key_repr(resid)
        )
        f2 = _rand_zak(order, n, rng)
        lhs = zak_act_right("UV", f2, theta)
        rhs = zak_act_right("VU", f2, theta)
        resid = lhs.sub(rhs.scale(series_exp(theta * tau)))
        yield CheckOutcome.from_residual(
            "zak-right-commutation:n=%d" % n, resid.term_count(), key_repr(resid)
        )

    t3 = Series.hbar(3)
    h1 = _rand_zak(3, 1, rng)
    h2 = _rand_zak(3, 1, rng)
    that = alpha(t3, -1)
    yield CheckOutcome.tally("pairing-balanced", (
        (1, w) for w in ("U", "V", "UV", "VU")
        if zak_pair(zak_act_right(w, h1, t3), h2, t3)
        != zak_pair(h1, zak_act_left(w, h2, that), t3)
    ))

    def bimodule():
        for w in ("U", "V", "UV"):
            if zak_act_left(w, zak_pair(h1, h2, t3), that) != zak_pair(
                zak_act_left(w, h1, t3), h2, t3
            ):
                yield 1, "%s:left" % w
            if zak_act_right(w, zak_pair(h1, h2, t3), that) != zak_pair(
                h1, zak_act_right(w, h2, that), t3
            ):
                yield 1, "%s:right" % w

    yield CheckOutcome.tally("pairing-bimodule", bimodule())

    thp = alpha(theta, 1)
    a = _rand_heis(order, rng, terms=2, degree=0)
    b = _rand_heis(order, rng, terms=2, degree=0)
    f = _rand_heis(order, rng, terms=2, degree=1)
    yield CheckOutcome.tally("monomial-bimodule", (
        (1, tag) for tag, x, y, z, t, tp in (
            ("a*f*b", a, f, b, theta, thp),
            ("a*b*f", a, b, f, thp, thp),
            ("f*a*b", f, a, b, theta, theta),
        )
        if not assoc_residual(x, y, z, t, tp).is_zero()
    ))


_BODIES = {
    "hopf-axioms": _hopf_axioms,
    "group-cohomology": _group_cohomology,
    "octonions": _octonions,
    "hopf-cochain": _hopf_cochain,
    "pbw-gcl": _pbw_gcl,
    "moyal": _moyal,
    "graded-galois": _graded_galois,
    "sharp-map": _sharp_map,
    "heis-torus": _heis_torus,
}


# Least order at which every check of a suite, negative controls included,
# can show: pbw-gcl's non-cocycle twist has residuals from hbar^2 on, and
# heis-torus builds theta = h + h^2.
_MIN_ORDER = {"pbw-gcl": 2, "heis-torus": 2}

# Largest order at which a scalar text is expanded only to tell its value
# from zero: a theta that truncates to zero, and the coefficients of a
# nilmanifold document, which stores no order (io_json._heis_order); beyond
# it the text is rejected.
_THETA_ORDER_CAP = 64

# Largest order a suite accepts: the largest at which its CLI run took under
# 15 s on a shared 2-core x86 machine while the products ran on Series.  On
# integer rows a CLI run at the cap takes 0.9-1.1 s (moyal at 11), 1.4-2.1 s
# (pbw-gcl at 13) and 3.2-3.8 s (heis-torus at 12) on that machine, at a
# peak RSS of 21.3, 27.9 and 25.5 MB.  The other suites read the order only
# to parse --theta, so theirs is the theta cap (sharp-map at order 64 with a
# theta: 0.15 s).
_MAX_ORDER = {"moyal": 11, "pbw-gcl": 13, "heis-torus": 12}


def _check_order(name, order):
    if order is None:
        return None
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise SchemaError("order must be a positive integer", "order")
    least = max(_MIN_ORDER.values()) if name == "all" else _MIN_ORDER.get(name, 1)
    if order < least:
        raise SchemaError(
            "suite %s needs order at least %d" % (name, least), "order"
        )
    most = (
        min(_MAX_ORDER.values())
        if name == "all"
        else _MAX_ORDER.get(name, _THETA_ORDER_CAP)
    )
    if order > most:
        raise SchemaError(
            "suite %s takes order at most %d" % (name, most), "order"
        )
    return order


def _check_theta(theta, order):
    if theta is None:
        return None
    from .grammar import hbar_valuation_bound, parse
    from .scalars import Series, theta_ok

    effective = 4 if order is None else order
    value = parse(theta, hbar_order=effective) if isinstance(theta, str) else theta
    if not isinstance(value, Series):
        value = Series.const(value, effective)
    if not theta_ok(value):
        raise SchemaError("theta needs a vanishing constant term", "theta")
    if isinstance(theta, str) and value.is_zero():
        bound = hbar_valuation_bound(theta)
        if bound > effective and (
            bound > _THETA_ORDER_CAP or parse(theta, hbar_order=bound)
        ):
            raise SchemaError(
                "theta truncates to zero at order %d" % effective, "theta"
            )
    return value


def _contained(body, rng, order, theta):
    """The checks body yields, then one error outcome if it raises; a
    computation refused as too costly still ends the run."""
    try:
        yield from body(rng, order, theta)
    except SolveTooCostly:
        raise
    except Exception as e:
        yield CheckOutcome.error("raised", "%s: %s" % (type(e).__name__, e))


def run_suite(name, order=None, theta=None, seed=None):
    """Run one named suite (or 'all') and return its SuiteReport, each check
    timed from the one before it."""
    if name != "all" and name not in SUITE_NAMES:
        raise UnknownSuite(
            "unknown suite %r; choose from %s or 'all'"
            % (name, ", ".join(SUITE_NAMES))
        )
    order = _check_order(name, order)
    theta = _check_theta(theta, order)
    seed = DEFAULT_SEED if seed is None else seed
    outcomes = []
    started = last = time.monotonic()
    for sub in SUITE_NAMES if name == "all" else (name,):
        label = sub + ":" if name == "all" else ""
        for ck in _contained(_BODIES[sub], random.Random(seed), order, theta):
            now = time.monotonic()
            ck = ck.renamed(label + ck.id)
            ck.elapsed_ms = round((now - last) * 1000, 3)
            outcomes.append(ck)
            last = now
    elapsed = int((time.monotonic() - started) * 1000)
    return SuiteReport(name, outcomes, seed, elapsed_ms=elapsed)

"""Named verification suites behind the command line interface.

Each suite builds its objects from scratch, runs a fixed battery of exact
checks, and returns a SuiteReport.  Reports are deterministic: the same
seed yields byte-identical JSON (timing is only attached on request).
"""

import random
import time
from fractions import Fraction

from .constructors import (
    cyclic_group,
    dihedral_4,
    dual_action_module,
    dual_group_hopf,
    dual_pairing_report,
    elementary_abelian_2,
    group_algebra,
    pareigis_axiom_report,
    pareigis_window,
    pauli_8,
    shuffle_axiom_report,
    shuffle_bialgebra,
    symmetric_3,
    taft,
    word_pin_report,
    z2_dual_iso_report,
)
from .errors import SchemaError, UnknownSuite
from .graded import (
    battery,
    canonical_map,
    ideal_property_report,
    resolution_of_unity,
    sharp_laws,
    smeb_check,
    strong_grading,
    window_battery,
    window_products_report,
)
from .grammar import hbar_valuation_bound, parse
from .group_cohomology import (
    TorusWindowAlgebra,
    fano_octonions,
    group_coboundary,
    is_cocycle,
    is_constant_one,
    is_unital,
    octonion_norm,
    random_group_cochain,
    root_of_unity,
    torus_cochain,
    twisted_group_algebra,
)
from .hopf_cochain import (
    HopfCochain,
    dsquared,
    equivariant_twist_check,
    is_counital,
    is_invariant,
    random_counital_two_cochain,
    random_invariant_two_cochain,
    random_invertible_element_cochain,
    random_pointwise_cochain,
    twist,
    verify_quasi,
)
from .heis_torus import (
    HeisElement,
    ZakElement,
    alpha,
    assoc_residual,
    star,
    zak_act_left,
    zak_act_right,
    zak_pair,
)
from .multilinear import LegTensor, verify_hopf, with_series_ring
from .pbw import (
    PBWTensor,
    bch_report,
    gcl_coassociator,
    gcl_cocycle_report,
    gcl_equivariance_report,
    gcl_twist_pair,
    heisenberg_counterexample,
    moyal_suite,
    pbw_exp,
)
from .reporting import CheckOutcome, SuiteReport
from .scalars import Series, TauLaurent, series_exp, theta_ok

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
    return [c.renamed("%s:%s" % (label, c.id)) for c in checks]


def _aggregate(id, failures, witness=None):
    return CheckOutcome.from_residual(id, failures, witness)


# ---------------------------------------------------------------------------
# suite bodies


def _hopf_axioms(rng, order, theta):
    groups = [
        ("Z2", cyclic_group(2)),
        ("Z3", cyclic_group(3)),
        ("Z2^3", elementary_abelian_2(3)),
        ("S3", symmetric_3()),
        ("D4", dihedral_4()),
        ("P8", pauli_8()),
    ]
    checks = []
    for name, G in groups:
        checks.extend(_prefix("k[%s]" % name, verify_hopf(group_algebra(G))))
    for name, G in groups:
        checks.extend(_prefix("dual[%s]" % name, verify_hopf(dual_group_hopf(G))))
    for p in (2, 3, 5):
        checks.extend(_prefix("taft%d" % p, verify_hopf(taft(p))))
    B = shuffle_bialgebra(2, 4)
    checks.extend(_prefix("shuffle", shuffle_axiom_report(B)))
    checks.extend(_prefix("shuffle", word_pin_report(B)))
    checks.extend(_prefix("pareigis4", pareigis_axiom_report(pareigis_window(4))))
    for name, G in groups:
        checks.extend(_prefix("pairing[%s]" % name, dual_pairing_report(G)))
    checks.extend(_prefix("z2-dual-iso", z2_dual_iso_report()))
    return checks


def _group_cohomology(rng, order, theta):
    checks = []
    hosts = [
        ("Z3", cyclic_group(3)),
        ("S3", symmetric_3()),
        ("Z2^2", elementary_abelian_2(2)),
    ]
    for name, G in hosts:
        for arity in (1, 2):
            bad = 0
            for _ in range(5):
                c = random_group_cochain(G, arity, rng)
                if not is_constant_one(group_coboundary(group_coboundary(c))):
                    bad += 1
            checks.append(_aggregate("ddelta-trivial:%s:arity%d" % (name, arity), bad))
        c1 = random_group_cochain(G, 1, rng)
        out = is_cocycle(group_coboundary(c1))
        checks.append(out.renamed("coboundary-closed:%s" % name))

    # a coboundary twist gives an associative algebra, the Fano cochain not
    S3 = symmetric_3()
    dF = group_coboundary(random_group_cochain(S3, 1, rng))
    A = twisted_group_algebra(S3, dF)
    checks.append(
        CheckOutcome.from_residual(
            "twist-assoc-iff-cocycle:pos",
            0 if A.assoc_flag == "associative" else 1,
        )
    )
    _, fano, oct_algebra = fano_octonions()
    checks.append(
        CheckOutcome.from_residual(
            "twist-assoc-iff-cocycle:neg",
            0 if oct_algebra.assoc_flag == "quasi" else 1,
        )
    )

    for theta_q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        tag = "torus-%d/%d" % (theta_q.numerator, theta_q.denominator)
        F, W = torus_cochain(theta_q, 5)
        out = is_cocycle(F, window=W)
        outs = out if isinstance(out, list) else [out]
        checks.append(
            _aggregate("%s:cocycle" % tag, sum(1 for o in outs if not o.ok))
        )
        u = is_unital(F)
        checks.append(u.renamed("%s:unital" % tag))
        rep = TorusWindowAlgebra(F, W).commutation_report()
        checks.append(rep.renamed("%s:commutation" % tag))
        want = root_of_unity(theta_q.numerator, 2 * theta_q.denominator)
        checks.append(
            CheckOutcome.from_residual(
                "%s:uv-phase-exact" % tag,
                0 if F.value((1, 0), (0, 1)) == want else 1,
            )
        )
    return checks


def _octonions(rng, order, theta):
    _, fano, O = fano_octonions()
    one = Fraction(1)
    checks = []

    bad = sum(
        1
        for i in range(8)
        if O.basis_mul(0, i) != {i: one} or O.basis_mul(i, 0) != {i: one}
    )
    checks.append(_aggregate("unit-laws", bad))

    dF = O.associator
    bad = 0
    witness = None
    for a in range(8):
        for b in range(8):
            ab = O.basis_mul(a, b)
            for c in range(8):
                lhs = O.elem_mul({a: one}, O.basis_mul(b, c))
                rhs = {
                    k: dF[(a, b, c)] * w * v
                    for j, v in ab.items()
                    for k, w in O.basis_mul(j, c).items()
                }
                if lhs != rhs:
                    bad += 1
                    witness = witness or repr((a, b, c))
    checks.append(_aggregate("quasi-associativity-512", bad, witness))

    bad = 0
    for a in range(8):
        x = {a: one}
        xx = O.elem_mul(x, x)
        for b in range(8):
            y = {b: one}
            if O.elem_mul(x, O.elem_mul(x, y)) != O.elem_mul(xx, y):
                bad += 1
            if O.elem_mul(O.elem_mul(y, x), x) != O.elem_mul(y, xx):
                bad += 1
    checks.append(_aggregate("alternativity-basis", bad))

    bad = sum(
        1
        for a in range(8)
        for b in range(8)
        if octonion_norm(O, O.elem_mul({a: one}, {b: one}))
        != octonion_norm(O, {a: one}) * octonion_norm(O, {b: one})
    )
    checks.append(_aggregate("norm-basis-pairs", bad))

    bad = 0
    witness = None
    for t in range(100):
        u = {i: Fraction(rng.randint(-3, 3)) for i in range(8)}
        v = {i: Fraction(rng.randint(-3, 3)) for i in range(8)}
        u = {i: c for i, c in u.items() if c}
        v = {i: c for i, c in v.items() if c}
        w = O.elem_mul(u, v)
        if octonion_norm(O, w) != octonion_norm(O, u) * octonion_norm(O, v):
            bad += 1
            witness = witness or "trial %d" % t
    checks.append(_aggregate("norm-seeded-100", bad, witness))

    dFc = group_coboundary(fano)
    neg = [k for k, v in dFc.table.items() if v == -1]
    census_bad = 0
    if len(neg) != 168 or dFc.table[(1, 2, 4)] != -1:
        census_bad = 1
    if any(v not in (1, -1) for v in dFc.table.values()):
        census_bad += 1
    checks.append(
        _aggregate("coboundary-sign-census", census_bad, "m(1,2,4)")
    )

    closed = is_cocycle(fano)
    checks.append(
        CheckOutcome.from_residual(
            "twist-not-closed",
            0 if (not closed.ok and is_unital(fano).ok) else 1,
        )
    )
    return checks


def _hopf_cochain(rng, order, theta):
    checks = []
    plain_hosts = [
        ("k[Z2^3]", group_algebra(elementary_abelian_2(3)), "element"),
        ("k[S3]", group_algebra(symmetric_3()), "element"),
        ("k[D4]", group_algebra(dihedral_4()), "element"),
        ("k[P8]", group_algebra(pauli_8()), "element"),
        ("dual[Z2^2]", dual_group_hopf(elementary_abelian_2(2)), "pointwise"),
    ]
    for label, H, kind in plain_hosts:
        unit3 = LegTensor.unit(H, 3)
        bad = 0
        for _ in range(20):
            if kind == "element":
                c = random_invertible_element_cochain(H, rng)
            else:
                c = random_pointwise_cochain(H, rng, 1)
            if not dsquared(c).eq(unit3):
                bad += 1
        checks.append(_aggregate("dsquared-unit:%s" % label, bad))

    series_pool = [
        ("k[Z2^3]+h", group_algebra(elementary_abelian_2(3)), None, 7),
        ("k[S3]+h", group_algebra(symmetric_3()), symmetric_3(), 7),
        ("dual[Z2^2]+h", dual_group_hopf(elementary_abelian_2(2)), None, 6),
    ]
    for label, H0, grp, count in series_pool:
        H = with_series_ring(H0, 2)
        unit4 = LegTensor.unit(H, 4)
        bad = 0
        for _ in range(count):
            c = random_invariant_two_cochain(H, rng, group=grp)
            if not dsquared(c).eq(unit4):
                bad += 1
        checks.append(_aggregate("dsquared-invariant:%s" % label, bad))

    # exact counterexample: d of a non-invariant cochain on the Pauli group
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
    got = dsquared(c)
    expect = LegTensor(KP8, 4, {(0, m1, m1, 0): Fraction(1)})
    ok = got.eq(expect) and not got.eq(LegTensor.unit(KP8, 4))
    checks.append(CheckOutcome.from_residual("pauli-counterexample", 0 if ok else 1))

    lhs, rhs = heisenberg_counterexample(4, 1)
    ok = lhs.eq(rhs) and not lhs.eq(PBWTensor.unit(1, 4, 4))
    checks.append(CheckOutcome.from_residual("pbw-counterexample", 0 if ok else 1))

    series_hosts = [
        ("k[Z2^3]", group_algebra(elementary_abelian_2(3))),
        ("k[S3]", group_algebra(symmetric_3())),
        ("k[D4]", group_algebra(dihedral_4())),
        ("k[P8]", group_algebra(pauli_8())),
        ("dual[Z2^2]", dual_group_hopf(elementary_abelian_2(2))),
    ]
    for label, H0 in series_hosts:
        H = with_series_ring(H0, 2)
        bad = 0
        witness = None
        for t in range(20):
            F = random_counital_two_cochain(H, rng)
            for ck in verify_quasi(twist(H, F)):
                if not ck.ok:
                    bad += 1
                    witness = witness or "%s trial %d" % (ck.id, t)
        checks.append(_aggregate("twist-quasi:%s" % label, bad, witness))

    # the octonions as a module-algebra twist over the dual of (Z/2)^3
    G8, fano, Oct = fano_octonions()
    mod = dual_action_module(G8)
    valF = LegTensor(mod.host, 2, dict(fano.table))
    FF = HopfCochain(mod.host, 2, valF, valF)
    bad = 0
    if not (is_counital(FF) and is_invariant(FF)):
        bad += 1
    R = twist(mod.host, FF, mod)
    if R.twisted_algebra.mult != Oct.mult:
        bad += 1
    bad += sum(1 for ck in verify_quasi(R) if not ck.ok)
    if not equivariant_twist_check(FF, R):
        bad += 1
    checks.append(_aggregate("octonion-module-twist", bad))
    return checks


def _pbw_gcl(rng, order, theta):
    order = 4 if order is None else order
    checks = []

    bad = 0
    witness = None
    for t in range(5):
        th = Series(order, {k: rng.randint(-2, 2) for k in range(1, order + 1)})
        tp = Series(order, {k: rng.randint(-2, 2) for k in range(1, order + 1)})
        try:
            gcl_coassociator(th, tp, order)
        except RuntimeError:
            bad += 1
            witness = witness or "pair %d" % t
    checks.append(_aggregate("coassociator-seeded", bad, witness))

    th = Series(order, {1: Fraction(2, 3)})
    lam = th * TauLaurent.tau(-1)
    phi = gcl_coassociator(th, th, order)
    expected = pbw_exp(
        PBWTensor(-1, order, 3, {((1, 0, 0), (0, 0, 1), (0, 1, 0)): -(lam * lam)})
    )
    checks.append(
        CheckOutcome.from_residual("equal-angle-closed-form", 0 if phi.eq(expected) else 1)
    )

    z = Series.zero(order)
    phi0 = gcl_coassociator(z, z, order)
    checks.append(
        CheckOutcome.from_residual(
            "zero-angle-trivial", 0 if phi0.eq(PBWTensor.unit(-1, order, 3)) else 1
        )
    )

    th1 = Series(order, {1: 1})
    ck = gcl_cocycle_report(th1, order)
    checks.append(
        CheckOutcome.from_residual(
            "twist-not-cocycle",
            0 if (not ck.ok and ck.residual_term_count > 0) else 1,
            ck.witness,
        )
    )
    ck2 = gcl_equivariance_report(th1, order)
    checks.append(
        CheckOutcome.from_residual(
            "twist-not-equivariant",
            0 if (not ck2.ok and ck2.witness) else 1,
            ck2.witness,
        )
    )
    checks.append(
        CheckOutcome.from_residual(
            "zero-angle-is-cocycle",
            0 if (gcl_cocycle_report(z, order).ok and gcl_equivariance_report(z, order).ok) else 1,
        )
    )
    return checks


def _moyal(rng, order, theta):
    order = 5 if order is None else order
    checks = list(moyal_suite(order))
    for kappa in (1, -1):
        for o in range(2, 7):
            ck = bch_report(kappa, o)
            checks.append(ck.renamed("kappa%+d:%s" % (kappa, ck.id)))
    return checks


def _graded_galois(rng, order, theta):
    checks = []
    for name, ga, expect in battery():
        n = ga.grading.order
        verdicts = [
            strong_grading(ga).strong,
            all(resolution_of_unity(ga, g) is not None for g in range(n)),
            canonical_map(ga).bijective,
            all(c.ok for g in range(n) for c in smeb_check(ga, g)),
        ]
        bad = sum(1 for v in verdicts if v != expect)
        checks.append(_aggregate("fourway:%s" % name, bad))
    for name, ga, expect in window_battery():
        verdicts = [
            strong_grading(ga).strong,
            all(c.ok for g in (1, -1) for c in smeb_check(ga, g)),
        ]
        bad = sum(1 for v in verdicts if v != expect)
        checks.append(_aggregate("fourway-window:%s" % name, bad))

    crossed = [
        (name, ga) for name, ga, _ in battery() if name.endswith("crossed")
    ]
    bad = sum(1 for _, ga in crossed if not strong_grading(ga).strong)
    checks.append(_aggregate("crossed-products-strong", bad))

    for name, ga, _ in battery():
        rep = ideal_property_report(ga)
        checks.append(rep.renamed("ideal:%s:%s" % (name, rep.id)))
    # component products span iff the window grading is strong
    for name, ga, expect in window_battery():
        rep = window_products_report(ga)
        checks.append(
            CheckOutcome.from_residual(
                "window-products-iff-strong:%s" % name,
                0 if rep.ok == expect else 1,
                rep.witness,
            )
        )
    return checks


def _sharp_map(rng, order, theta):
    from itertools import product

    checks = []
    bad = 0
    total = 0
    witness = None
    for n in range(1, 5):
        for entries in product(range(1, 5), repeat=n):
            total += 1
            for ck in sharp_laws(entries):
                if not ck.ok:
                    bad += 1
                    witness = witness or repr(entries)
    checks.append(_aggregate("laws-exhaustive-%d-tuples" % total, bad, witness))

    frozen = [
        ((1, 2, 3), (6, 3, 2)),
        ((5, 7), (7, 5)),
        ((4,), (1,)),
    ]
    from .graded import sharp

    bad = sum(1 for inp, out in frozen if sharp(inp) != out)
    checks.append(_aggregate("frozen-examples", bad))
    return checks


def _heis_torus(rng, order, theta):
    order = 4 if order is None else order
    if theta is None:
        theta = Series.hbar(order)
    checks = []
    tau = TauLaurent.tau()

    U = HeisElement.monomial(order, m=1)
    V = HeisElement.monomial(order, 0, 0, 0, 1)
    uv = star(U, V, theta)
    vu = star(V, U, theta)
    resid = uv.sub(vu.scale(series_exp(theta * tau)))
    checks.append(_aggregate("uv-commutation", resid.term_count()))

    for n in (-2, -1, 1, 2):
        for tag, terms in (("h", {1: 1}), ("h+h^2", {1: 1, 2: 1})):
            th = Series(order, terms)
            a = _rand_heis(order, rng, terms=2)
            b = _rand_heis(order, rng, terms=2, degree=n)
            c = _rand_heis(order, rng, terms=2)
            good = alpha(th, n)
            bad = 0
            if not assoc_residual(a, b, c, th, good).is_zero():
                bad += 1
            mono = HeisElement.monomial(order, 0, n)
            for j in (1, 2, order):
                perturbed = good + Series.hbar(order, power=j)
                if assoc_residual(U, mono, V, th, perturbed).is_zero():
                    bad += 1
            checks.append(_aggregate("reparam-iff:n=%d:theta=%s" % (n, tag), bad))

    t5 = Series(5, {1: 1, 2: Fraction(1, 3)})
    bad = 0
    for j in (-2, 1, 3):
        for k in (-1, 2):
            if alpha(alpha(t5, k), j) != alpha(t5, j + k):
                bad += 1
    checks.append(_aggregate("alpha-composition-order5", bad))

    for n in (1, 2):
        f = _rand_zak(order, n, rng)
        lhs = zak_act_left("UV", f, theta)
        rhs = zak_act_left("VU", f, theta)
        resid = lhs.sub(rhs.scale(series_exp(alpha(theta, n) * tau)))
        checks.append(_aggregate("zak-left-commutation:n=%d" % n, resid.term_count()))
        f2 = _rand_zak(order, n, rng)
        lhs = zak_act_right("UV", f2, theta)
        rhs = zak_act_right("VU", f2, theta)
        resid = lhs.sub(rhs.scale(series_exp(theta * tau)))
        checks.append(_aggregate("zak-right-commutation:n=%d" % n, resid.term_count()))

    t3 = Series.hbar(3)
    h1 = _rand_zak(3, 1, rng)
    h2 = _rand_zak(3, 1, rng)
    that = alpha(t3, -1)
    bad = 0
    for w in ("U", "V", "UV", "VU"):
        L = zak_pair(zak_act_right(w, h1, t3), h2, t3)
        R = zak_pair(h1, zak_act_left(w, h2, that), t3)
        if L != R:
            bad += 1
    checks.append(_aggregate("pairing-balanced", bad))

    bad = 0
    for w in ("U", "V", "UV"):
        if zak_act_left(w, zak_pair(h1, h2, t3), that) != zak_pair(
            zak_act_left(w, h1, t3), h2, t3
        ):
            bad += 1
        if zak_act_right(w, zak_pair(h1, h2, t3), that) != zak_pair(
            h1, zak_act_right(w, h2, that), t3
        ):
            bad += 1
    checks.append(_aggregate("pairing-bimodule", bad))

    thp = alpha(theta, 1)
    a = _rand_heis(order, rng, terms=2, degree=0)
    b = _rand_heis(order, rng, terms=2, degree=0)
    f = _rand_heis(order, rng, terms=2, degree=1)
    bad = 0
    if not assoc_residual(a, f, b, theta, thp).is_zero():
        bad += 1
    if not assoc_residual(a, b, f, thp, thp).is_zero():
        bad += 1
    if not assoc_residual(f, a, b, theta, theta).is_zero():
        bad += 1
    checks.append(_aggregate("monomial-bimodule", bad))
    return checks


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

# Largest order at which a theta that truncates to zero is expanded to tell
# whether it is zero itself; beyond it the theta is rejected.
_THETA_ORDER_CAP = 64


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
    return order


def _check_theta(theta, order):
    if theta is None:
        return None
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


def run_suite(name, order=None, theta=None, seed=None):
    """Run one named suite (or 'all') and return its SuiteReport."""
    order = _check_order(name, order)
    seed = DEFAULT_SEED if seed is None else seed
    started = time.monotonic()
    if name == "all":
        checks = []
        rng = random.Random(seed)
        theta_v = _check_theta(theta, order)
        for sub in SUITE_NAMES:
            checks.extend(_prefix(sub, _BODIES[sub](rng, order, theta_v)))
    elif name in _BODIES:
        rng = random.Random(seed)
        theta_v = _check_theta(theta, order)
        checks = _BODIES[name](rng, order, theta_v)
    else:
        raise UnknownSuite(
            "unknown suite %r; choose from %s or 'all'"
            % (name, ", ".join(SUITE_NAMES))
        )
    elapsed = int((time.monotonic() - started) * 1000)
    return SuiteReport(name, checks, seed, elapsed_ms=elapsed)

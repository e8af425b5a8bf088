"""Multiplicative cochain calculus on Hopf presentations.

A cochain of arity n is an invertible tensor in host^(tensor n).  The
coboundary interleaves coproduct-leg insertions:

    d(h) = [prod over even i of D_i(h)] * [prod over odd i of D_i(h^-1)]

with i running 0..n+1 in increasing order inside each product, D_0 = unit
on a new leftmost leg, D_{n+1} = unit on a new rightmost leg, and D_i for
1 <= i <= n the coproduct applied at leg i-1.  Cochains carry their
inverses so coboundaries never solve linear systems: the inverse of d(h)
is the reversed product of the leg-inserted inverses.  That inverse costs
as many products as d(h) itself, so it is formed only when a caller needs
it (coboundary_pair, for a new cochain); the checks that compare d(h)
against a target call coboundary, which forms d(h) alone.

Twisting replaces the coproduct by F Delta(.) F^-1 and the module-algebra
product by m(F^-1 acting legwise); the associator d(F) measures the
failure of coassociativity and associativity after the twist.
"""

from fractions import Fraction

from .errors import ArityMismatch, NotCounital, NotInvertible
from .multilinear import (
    AlgebraPresentation,
    HopfPresentation,
    LegTensor,
    ModuleAlgebra,
    tensor_invert,
    verify_algebra,
)
from .reporting import CheckOutcome
from .scalars import Series


class HopfCochain:
    """Invertible tensor with a cached two-sided inverse."""

    __slots__ = ("host", "arity", "value", "inverse")

    def __init__(self, host, arity, value, inverse=None, _trusted=False):
        self.host = host
        self.arity = arity
        if not isinstance(value, LegTensor):
            value = LegTensor(host, arity, value)
        if value.arity != arity:
            raise ArityMismatch(
                "value has arity %d, expected %d" % (value.arity, arity)
            )
        self.value = value
        if inverse is None:
            inverse = tensor_invert(value)
        else:
            if not isinstance(inverse, LegTensor):
                inverse = LegTensor(host, arity, inverse)
            if not _trusted:
                unit = LegTensor.unit(host, arity)
                if not (
                    value.mul(inverse).eq(unit)
                    and inverse.mul(value).eq(unit)
                ):
                    raise NotInvertible(
                        "supplied inverse is not a two-sided inverse"
                    )
        self.inverse = inverse

    @staticmethod
    def from_element(host, vec):
        return HopfCochain(host, 1, LegTensor.from_element(host, dict(vec)))

    def __repr__(self):
        return "HopfCochain(%s, arity=%d, %d terms)" % (
            getattr(self.host, "name", "host"),
            self.arity,
            self.value.term_count(),
        )


def unit_cochain(host, arity):
    u = LegTensor.unit(host, arity)
    return HopfCochain(host, arity, u, u, _trusted=True)


# ---------------------------------------------------------------------------
# coboundary engine (duck-typed: works for any tensor implementing mul,
# leg_embed, coproduct_leg, arity)


def _delta_i(t, i):
    n = t.arity
    if i == 0:
        return t.leg_embed(tuple(range(1, n + 1)), n + 1)
    if i == n + 1:
        return t.leg_embed(tuple(range(n)), n + 1)
    return t.coproduct_leg(i - 1)


def coboundary(value, inverse):
    """d(value) alone, without linear solves: the even leg insertions of
    value in increasing order, then the odd ones of its inverse."""
    n = value.arity
    out = None
    for i in range(0, n + 2, 2):
        f = _delta_i(value, i)
        out = f if out is None else out.mul(f)
    for i in range(1, n + 2, 2):
        out = out.mul(_delta_i(inverse, i))
    return out


def coboundary_pair(value, inverse):
    """(d(value), d(value)^-1) without linear solves."""
    n = value.arity
    out = coboundary(value, inverse)
    inv = None
    for i in reversed(range(1, n + 2, 2)):
        f = _delta_i(value, i)
        inv = f if inv is None else inv.mul(f)
    for i in reversed(range(0, n + 2, 2)):
        inv = inv.mul(_delta_i(inverse, i))
    return out, inv


def hopf_coboundary(c):
    val, inv = coboundary_pair(c.value, c.inverse)
    return HopfCochain(c.host, c.arity + 1, val, inv, _trusted=True)


def dsquared(c):
    """d(d(c)) as a bare tensor, for comparison against the unit."""
    d = hopf_coboundary(c)
    return coboundary(d.value, d.inverse)


# ---------------------------------------------------------------------------
# predicates


def counital_report(c):
    """Each leg contracted with the counit must give the unit tensor."""
    unit = LegTensor.unit(c.host, c.arity - 1)
    bad = 0
    wit = None
    for leg in range(c.arity):
        r = c.value.counit_leg(leg).sub(unit).term_count()
        if r:
            bad += r
            if wit is None:
                wit = "leg %d" % leg
    return CheckOutcome.from_residual("counital", bad, wit)


def is_counital(c):
    return counital_report(c).ok


def iterated_coproduct(host, vec, arity):
    """Left-iterated coproduct of a sparse element, as an arity-n tensor."""
    t = LegTensor.from_element(host, dict(vec))
    while t.arity < arity:
        t = t.coproduct_leg(0)
    return t


def invariant_report(c):
    """Commutation with every iterated-coproduct image of a basis element."""
    host = c.host
    one = host.ring.one()
    bad = 0
    wit = None
    for i in range(host.dim):
        d = iterated_coproduct(host, {i: one}, c.arity)
        r = c.value.mul(d).sub(d.mul(c.value)).term_count()
        if r:
            bad += r
            if wit is None:
                wit = host.labels[i]
    return CheckOutcome.from_residual("invariant", bad, wit)


def is_invariant(c):
    return invariant_report(c).ok


def key_witness(t):
    """The labels of the first key of a tensor, "(a,b,...)", or None when
    the tensor is zero."""
    if t.is_zero():
        return None
    digits, _ = t.entries()[0]
    return "(%s)" % ",".join(t.host.labels[d] for d in digits)


def cocycle_report(F):
    """Residual of d(F) against the unit tensor."""
    res = coboundary(F.value, F.inverse).sub(LegTensor.unit(F.host, F.arity + 1))
    return CheckOutcome.from_residual("cocycle", res.term_count(), key_witness(res))


def is_in_kernel(F):
    return cocycle_report(F).ok


# ---------------------------------------------------------------------------
# twisting


class QuasiHopfTwistResult:
    """Twisted coproduct host, associator, and optional twisted algebra."""

    __slots__ = (
        "original",
        "twisted",
        "cochain",
        "phi",
        "module",
        "twisted_algebra",
        "_phi_twisted",
    )

    def __init__(self, original, twisted, cochain, phi, module, twisted_algebra):
        self.original = original
        self.twisted = twisted
        self.cochain = cochain
        self.phi = phi
        self.module = module
        self.twisted_algebra = twisted_algebra
        self._phi_twisted = None

    def phi_twisted(self):
        """The associator rewrapped over the twisted host."""
        if self._phi_twisted is None:
            tw = self.twisted
            self._phi_twisted = HopfCochain(
                tw,
                3,
                self.phi.value.over(tw),
                self.phi.inverse.over(tw),
                _trusted=True,
            )
        return self._phi_twisted


def _twisted_module_algebra(module, F):
    """A with the product m(F^-1 acting legwise)."""
    A = module.algebra
    mult = {}
    for ij, image in module.act_tensor(F.inverse).items():
        cell = {}
        for (a, b), c in image.items():
            for k, w in A.basis_mul(a, b).items():
                r = cell.get(k, 0) + c * w
                if r:
                    cell[k] = r
                else:
                    cell.pop(k, None)
        if cell:
            mult[ij] = cell
    return AlgebraPresentation(A.dim, A.labels, A.ring, mult, A.unit)


def _conjugated_host(host, F):
    """Same algebra, coproduct replaced by F Delta(.) F^-1, no antipode;
    the product side, with its tables and caches, is host's own."""
    cop = {}
    for i in range(host.dim):
        cell = host.basis_coproduct(i)
        if not cell:
            continue
        di = LegTensor(host, 2, dict(cell))
        ti = F.value.mul(di).mul(F.inverse)
        cop[i] = {jk: v for jk, v in ti.entries()}
    twisted = HopfPresentation(
        host.dim,
        host.labels,
        host.ring,
        host.mult,
        host.unit,
        cop,
        host.counit,
        antipode=None,
        commutative=host.commutative,
        cocommutative=False,
        name=host.name + "-twist",
    )
    twisted.share_product(host)
    return twisted


def twist(host, F, module=None):
    """Twist the coproduct by a counital invertible 2-cochain.

    Returns the twisted host (same product, conjugated coproduct, no
    antipode), the associator d(F), and the twisted module algebra when a
    module is supplied."""
    if F.arity != 2:
        raise ArityMismatch("twisting needs an arity-2 cochain")
    if F.host is not host:
        raise ValueError("cochain does not live over the given host")
    rep = counital_report(F)
    if not rep.ok:
        raise NotCounital("twisting cochain fails counitality at " + str(rep.witness))
    twisted = _conjugated_host(host, F)
    phi_val, phi_inv = coboundary_pair(F.value, F.inverse)
    phi = HopfCochain(host, 3, phi_val, phi_inv, _trusted=True)
    twisted_algebra = None
    if module is not None:
        if module.host is not host:
            raise ValueError("module does not live over the given host")
        twisted_algebra = _twisted_module_algebra(module, F)
    return QuasiHopfTwistResult(host, twisted, F, phi, module, twisted_algebra)


def verify_quasi(result):
    """Coassociator identities for a twist: conjugated coassociativity,
    counitality of the associator, its twisted-coboundary closure, and
    (when an algebra is attached) quasi-associativity and the module law."""
    checks = []
    tw = result.twisted
    one = tw.ring.one()
    phi_t = result.phi_twisted()

    bad, wit = 0, None
    for i in range(tw.dim):
        d = LegTensor.from_element(tw, {i: one}).coproduct_leg(0)
        lhs = d.coproduct_leg(1)
        rhs = phi_t.value.mul(d.coproduct_leg(0)).mul(phi_t.inverse)
        r = lhs.sub(rhs).term_count()
        if r:
            bad += r
            if wit is None:
                wit = tw.labels[i]
    checks.append(
        CheckOutcome.from_residual("twisted-coproduct-conjugation", bad, wit)
    )

    rep = counital_report(phi_t)
    checks.append(rep.renamed("associator-counital"))

    pent = coboundary(phi_t.value, phi_t.inverse)
    res = pent.sub(LegTensor.unit(tw, 4))
    checks.append(
        CheckOutcome.from_residual(
            "associator-pentagon", res.term_count(), key_witness(res)
        )
    )

    if result.module is not None and result.twisted_algebra is not None:
        # x(yz) = sum phi^-1(x,y,z)_abc (ab)c, phi acting through the module
        AF = result.twisted_algebra
        module = ModuleAlgebra(tw, AF, result.module.action)
        got = {c.id: c for c in verify_algebra(AF, phi_t.inverse, module)}
        checks.append(got["quasi-associativity"].renamed("twisted-quasi-associativity"))
        checks.append(got["module-algebra-mult"].renamed("twisted-module-law"))
    return checks


def equivariant_twist_check(F, result=None):
    """True when the associator commutes with every iterated twisted
    coproduct image, i.e. the twist lands in an honestly coassociative
    corner of the quasi world.  Counitality is not required here."""
    if F.arity != 2:
        raise ArityMismatch("equivariance test needs an arity-2 cochain")
    if result is not None:
        tw = result.twisted
        phi_val = result.phi_twisted().value
    else:
        tw = _conjugated_host(F.host, F)
        phi_val = coboundary(F.value, F.inverse).over(tw)
    one = tw.ring.one()
    for i in range(tw.dim):
        d = (
            LegTensor.from_element(tw, {i: one})
            .coproduct_leg(0)
            .coproduct_leg(0)
        )
        if not phi_val.mul(d).eq(d.mul(phi_val)):
            return False
    return True


# ---------------------------------------------------------------------------
# gauge action


def gauge_act(g, F):
    """(g tensor g) F Delta(g^-1) for an invertible 1-cochain g."""
    if g.arity != 1:
        raise ArityMismatch("gauge element must have arity 1")
    host = F.host
    gv = dict(g.value.data)
    gi = dict(g.inverse.data)
    gg = LegTensor.outer(host, [gv, gv])
    gginv = LegTensor.outer(host, [gi, gi])
    dg = LegTensor(host, 2, dict(host.elem_coproduct(gv)))
    dginv = LegTensor(host, 2, dict(host.elem_coproduct(gi)))
    val = gg.mul(F.value).mul(dginv)
    inv = dg.mul(F.inverse).mul(gginv)
    return HopfCochain(host, F.arity, val, inv, _trusted=True)


def gauge_equivalent(F, F2, g):
    return gauge_act(g, F).value.eq(F2.value)


def gauge_equivariance_report(g, F):
    """d(gauge(g, F)) must equal the g x g x g conjugate of d(F)."""
    host = F.host
    gv = dict(g.value.data)
    gi = dict(g.inverse.data)
    lhs = coboundary(*_pair(gauge_act(g, F)))
    dF = coboundary(F.value, F.inverse)
    g3 = LegTensor.outer(host, [gv, gv, gv])
    g3inv = LegTensor.outer(host, [gi, gi, gi])
    res = lhs.sub(g3.mul(dF).mul(g3inv))
    return CheckOutcome.from_residual(
        "gauge-equivariance", res.term_count(), key_witness(res)
    )


def _pair(c):
    return c.value, c.inverse


# ---------------------------------------------------------------------------
# seeded samplers


def random_invertible_element_cochain(host, rng, tries=60):
    """Dense small-integer 1-cochain, resampled until invertible."""
    for _ in range(tries):
        vec = {}
        for i in range(host.dim):
            c = rng.randint(-3, 3)
            if c:
                vec[i] = Fraction(c)
        if not vec:
            continue
        try:
            return HopfCochain.from_element(host, vec)
        except NotInvertible:
            continue
    raise NotInvertible("no invertible sample found")


def random_pointwise_cochain(host, rng, arity):
    """Everywhere-nonzero tensor over a pointwise-product host, with the
    reciprocal tensor supplied as its inverse."""
    total = host.dim ** arity
    val = {}
    inv = {}
    for k in range(total):
        num = rng.randint(1, 5) * (1 if rng.random() < 0.5 else -1)
        den = rng.randint(1, 4)
        c = Fraction(num, den)
        val[k] = c
        inv[k] = 1 / c
    return HopfCochain(
        host,
        arity,
        LegTensor(host, arity, val, _checked=True),
        LegTensor(host, arity, inv, _checked=True),
    )


def counital_projection(t):
    """Kill the counit components of an arity-2 tensor on both legs."""
    host = t.host
    unit_vec = host.elem_unit()
    ea = t.counit_leg(0)
    eb = t.counit_leg(1)
    s = eb.counit_leg(0).data.get(0, host.ring.zero())
    out = t.sub(LegTensor.outer(host, [unit_vec, dict(ea.data)]))
    out = out.sub(LegTensor.outer(host, [dict(eb.data), unit_vec]))
    out = out.add(LegTensor.unit(host, 2).scale(s))
    return out


def _sparse_pairs(host, rng, terms):
    u = {}
    for _ in range(terms):
        i = rng.randrange(host.dim)
        j = rng.randrange(host.dim)
        c = rng.randint(1, 3) * (1 if rng.random() < 0.5 else -1)
        u[(i, j)] = u.get((i, j), 0) + c
    return {k: Fraction(v) for k, v in u.items() if v}


def random_counital_two_cochain(host, rng, terms=4):
    """1 + hbar * (counit-projected sparse perturbation), over a series host."""
    order = host.ring.hbar_order
    if order is None:
        raise ValueError("sampler needs a series-ring host")
    u = LegTensor(host, 2, _sparse_pairs(host, rng, terms))
    u = counital_projection(u)
    F = LegTensor.unit(host, 2).add(u.scale(Series.hbar(order)))
    return HopfCochain(host, 2, F)


def random_invariant_two_cochain(host, rng, group=None, terms=3):
    """1 + hbar * (invariant perturbation): free over commutative hosts,
    spanned by class sums sum(g x g) and central pairs otherwise."""
    order = host.ring.hbar_order
    if order is None:
        raise ValueError("sampler needs a series-ring host")
    if group is None:
        if not host.commutative:
            raise ValueError("noncommutative host needs its group")
        pairs = _sparse_pairs(host, rng, terms)
    else:
        blocks = [
            {(g, g): Fraction(1) for g in cls}
            for cls in group.conjugacy_classes()
        ]
        cen = group.center()
        blocks.extend({(z, w): Fraction(1)} for z in cen for w in cen)
        pairs = {}
        for _ in range(terms):
            blk = blocks[rng.randrange(len(blocks))]
            c = rng.randint(1, 3) * (1 if rng.random() < 0.5 else -1)
            for k, v in blk.items():
                r = pairs.get(k, 0) + c * v
                if r:
                    pairs[k] = r
                else:
                    pairs.pop(k, None)
    u = LegTensor(host, 2, pairs)
    F = LegTensor.unit(host, 2).add(u.scale(Series.hbar(order)))
    return HopfCochain(host, 2, F)

"""Multiplicative cochain calculus on Hopf presentations.

A cochain of arity n is an invertible tensor in host^(tensor n) that
carries its inverse, so its coboundary d(h) is formed by the coboundary
engine (cochain_engine) with no linear solve.  A cochain made with
HopfCochain.deferred forms its inverse on the first read.

For an invertible X, d(X) is the unit exactly when its even faces equal
its odd faces (cochain_engine._faces).  One test, _closed, decides that
for d^2 (dsquared forms X = d(c) alone, and the inverse of X only when
d^2(c) is not the unit), the cocycle check (d(F) is formed only for a
failing check's residual) and the pentagon below.  Over a commutative
Q-algebra in which hbar is nilpotent (hbar^(K+1) = 0), log is a bijection
from 1 + hbar A onto hbar A that turns products into sums, so for
X = 1 + P, P of positive hbar degree, d(X) = 1 exactly when the even faces
of log X = P - P^2/2 + ... (to P^K) sum to its odd faces.  _closed takes
that log form when the host's tables, never its name, say each D_i is a
unital algebra map that relabels keys: a series ring, a commuting product
(product_commutes) that is a group table (key_table, _Cells.latin), a
declared unit that is the table's identity with coefficient 1, and the
diagonal coproduct g -> g (x) g as a relabel; and when X's hbar^0 pieces
are the unit's.  It costs K - 1 products at X's arity n and n + 2
relabelled faces, with no product at arity n + 1.  Every other host (a
dual, k[S3], an exact ring), and an X the log form finds not closed, is
decided by the faces, which give every failing check its residual and
witness as before.
Phi = coboundary(F, F^-1) stays a product of faces: an associator formed as
exp(d log F) would pass the pentagon whatever the kernel did.

Twisting replaces the coproduct by Delta_F = F Delta(.) F^-1 and the
module-algebra product by m(F^-1 acting legwise); the associator
Phi = d(F) measures the failure of coassociativity and associativity after
the twist.  verify_quasi checks Drinfeld's two identities in the forms
without Phi^-1, which hold exactly because Phi is invertible and each D_i
is an algebra map:

    (id (x) Delta_F) Delta_F(x) Phi = Phi (Delta_F (x) id) Delta_F(x)
    D_0(Phi) D_2(Phi) D_4(Phi) = D_3(Phi) D_1(Phi)   (the pentagon)

so Phi^-1 is formed only when the twisted module law reads it.  Over a
commuting product (read from the structure table, product_commutes) F
commutes with every Delta(b), so the twisted coproduct is the host's own,
formed with no product, and the first identity is checked as
((id (x) Delta) Delta(x) - (Delta (x) id) Delta(x)) Phi, one product,
formed only when the two coproducts differ.  Over any other product the twisted
coproduct F Delta(b_i) F^-1 stays integer pieces: the products' pieces are
merged into the twisted host's leg cells (set_coproduct_tensors), and its
{key: value} coproduct is built only when something reads it.

Every residual check is one LegTensor.sub of its two sides: two sides
that hold equal pieces at one conductor give the empty tensor with no
merge, so a passing check at one conductor forms no difference at all,
and two sides that differ, or lie at two conductors, are merged once.
"""

from fractions import Fraction
from functools import reduce
from itertools import chain

from .cochain_engine import (
    _faces,
    _legs,
    _product,
    coboundary,
    coboundary_inverse,
    coboundary_pair,
)
from .errors import ArityMismatch, NotCounital, NotInvertible
from .multilinear import (
    AlgebraPresentation,
    HopfPresentation,
    LegTensor,
    tensor_invert,
)
from .reporting import CheckOutcome
from .scalars import Series, accumulate


class HopfCochain:
    """Invertible tensor with a cached two-sided inverse."""

    __slots__ = ("host", "arity", "value", "_inverse", "_make_inverse")

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
        self._make_inverse = None
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
        self._inverse = inverse

    @staticmethod
    def deferred(host, arity, value, make_inverse):
        """A cochain whose inverse is known to exist and is formed by
        make_inverse() on the first read of .inverse, unchecked."""
        c = HopfCochain.__new__(HopfCochain)
        c.host = host
        c.arity = arity
        c.value = value
        c._inverse = None
        c._make_inverse = make_inverse
        return c

    @property
    def inverse(self):
        """The two-sided inverse, a deferred one formed on this first read."""
        if self._inverse is None:
            self._inverse = self._make_inverse()
            self._make_inverse = None
        return self._inverse

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
# coboundaries of cochains (the engine itself is cochain_engine)


def hopf_coboundary(c):
    val, inv = coboundary_pair(c.value, c.inverse)
    return HopfCochain(c.host, c.arity + 1, val, inv, _trusted=True)


def _log_faces(X):
    """(even, odd), the sums of the even and of the odd faces of log X, or
    None when the log form does not apply: the host's tables must make each
    D_i a unital algebra map that relabels keys over a commutative
    Q-algebra in which hbar is nilpotent (a series ring, a commuting group
    table whose identity is the declared unit with coefficient 1, and the
    diagonal coproduct), and X's hbar^0 pieces must be the unit's.  log X is
    P - P^2/2 + ... + (-1)^(K+1) P^K/K for X = 1 + P, truncated at the
    ring's order K: K - 1 products at X's arity."""
    host, n = X.host, X.arity
    K = host.ring.hbar_order
    if K is None or not host.product_commutes():
        return None
    table = host.key_table()
    if table is None or not table.latin:
        return None
    if host.unit_rows(1) != ({(0, 0, 0): ({table.unit: 1}, 1)}, 1):
        return None
    dim = host.dim
    relabel = host.coproduct_pieces()[2]
    if relabel is None or list(relabel.codes) != [(i * dim + i,) for i in range(dim)]:
        return None
    pieces, N = X._phases()
    if {p: x for p, x in pieces.items() if not p[0]} != host.unit_rows(n)[0]:
        return None
    P = LegTensor._of_rows(host, n, {p: x for p, x in pieces.items() if p[0]}, N)
    log, power = P, P
    for k in range(2, K + 1):
        power = power.mul(P)
        log = log.add(power.scale(Fraction((-1) ** (k + 1), k)))
    return tuple(reduce(LegTensor.add, _legs(log, range(first, n + 2, 2))) for first in (0, 1))


def _closed(X):
    """(closed, faces): closed is True exactly when d(X) is the unit.  The
    log form (_log_faces) decides a closed X with faces None; otherwise the
    faces decide, even == odd, and faces is (even, odd) (_faces), from which
    a failing check forms its residual and witness."""
    logs = _log_faces(X)
    if logs is not None and logs[0].eq(logs[1]):
        return True, None
    even, odd = _faces(X)
    return even.eq(odd), (even, odd)


def dsquared(c):
    """d(d(c)) as a bare tensor, for comparison against the unit.  With
    X = d(c), formed alone, d(X) is the unit exactly when _closed(X) says
    so, and then the unit is returned with no inverse formed.  Otherwise
    X^-1 is formed and d(X) is the even faces times the odd faces of X^-1
    in increasing order, the product coboundary(X, X^-1) forms."""
    X = coboundary(c.value, c.inverse)
    closed, faces = _closed(X)
    if closed:
        return LegTensor.unit(c.host, c.arity + 2)
    Xinv = coboundary_inverse(c.value, c.inverse)
    return _product(chain([faces[0]], _legs(Xinv, range(1, X.arity + 2, 2))))


# ---------------------------------------------------------------------------
# predicates


def counital_report(c):
    """Each leg contracted with the counit must give the unit tensor."""
    unit = LegTensor.unit(c.host, c.arity - 1)

    def failures():
        for leg in range(c.arity):
            r = c.value.counit_leg(leg).sub(unit).term_count()
            if r:
                yield r, "leg %d" % leg

    return CheckOutcome.tally("counital", failures())


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

    def failures():
        for i in range(host.dim):
            d = iterated_coproduct(host, {i: one}, c.arity)
            r = c.value.mul(d).sub(d.mul(c.value)).term_count()
            if r:
                yield r, host.labels[i]

    return CheckOutcome.tally("invariant", failures())


def key_witness(t):
    """The labels of the first key of a tensor, "(a,b,...)", or None when
    the tensor is zero."""
    if t.is_zero():
        return None
    digits, _ = t.entries()[0]
    return "(%s)" % ",".join(t.host.labels[d] for d in digits)


def cocycle_report(F):
    """Residual of d(F) against the unit tensor.  d(F) is the unit exactly
    when _closed(F) says so; d(F) itself is formed only for a failing
    check's residual and witness."""
    if _closed(F.value)[0]:
        return CheckOutcome.from_residual("cocycle", 0)
    res = coboundary(F.value, F.inverse).sub(LegTensor.unit(F.host, F.arity + 1))
    return CheckOutcome.from_residual("cocycle", res.term_count(), key_witness(res))


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
        """The associator rewrapped over the twisted host; its inverse is
        phi's, formed on the first read of either."""
        if self._phi_twisted is None:
            tw, phi = self.twisted, self.phi
            self._phi_twisted = HopfCochain.deferred(
                tw, 3, phi.value.over(tw), lambda: phi.inverse.over(tw)
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
                accumulate(cell, k, c * w)
        if cell:
            mult[ij] = cell
    return AlgebraPresentation(A.dim, A.labels, A.ring, mult, A.unit)


def _conjugated_host(host, F):
    """Same algebra, coproduct replaced by F Delta(.) F^-1, no antipode;
    the product side, with its tables and caches, and the counit's leg
    cells are host's own (share_product), so no product table is passed
    to be normalized.  Over a commuting product (read from the table,
    product_commutes) F commutes with every Delta(b_i), so the coproduct
    is host's too, copied with no product, and so are its leg cells.
    Otherwise the products F Delta(b_i) F^-1 go to the twisted host as
    tensors (set_coproduct_tensors): their integer pieces become its leg
    cells, and its coproduct values are built only on a first read."""
    commutes = host.product_commutes()
    twisted = HopfPresentation(
        host.dim,
        host.labels,
        host.ring,
        {},
        host.unit,
        host.coproduct if commutes else {},
        host.counit,
        antipode=None,
        name=host.name + "-twist",
    )
    twisted.share_product(host)
    twisted.share_leg_cells(host, commutes)
    if not commutes:
        twisted.set_coproduct_tensors({
            i: F.value.mul(LegTensor(host, 2, dict(cell))).mul(F.inverse)
            for i, cell in host.coproduct.items()
        })
    return twisted


def twist(host, F, module=None):
    """Twist the coproduct by a counital invertible 2-cochain.

    Returns the twisted host (same product, conjugated coproduct
    F Delta(.) F^-1, no antipode), the associator Phi = d(F), and the
    twisted module algebra when a module is supplied.  Phi is formed by
    coboundary alone; Phi^-1 (coboundary_inverse) is formed on the first
    read of phi.inverse or phi_twisted().inverse."""
    if F.arity != 2:
        raise ArityMismatch("twisting needs an arity-2 cochain")
    if F.host is not host:
        raise ValueError("cochain does not live over the given host")
    rep = counital_report(F)
    if not rep.ok:
        raise NotCounital("twisting cochain fails counitality at " + str(rep.witness))
    twisted = _conjugated_host(host, F)
    phi = HopfCochain.deferred(
        host, 3, coboundary(F.value, F.inverse),
        lambda: coboundary_inverse(F.value, F.inverse),
    )
    twisted_algebra = None
    if module is not None:
        if module.host is not host:
            raise ValueError("module does not live over the given host")
        twisted_algebra = _twisted_module_algebra(module, F)
    return QuasiHopfTwistResult(host, twisted, F, phi, module, twisted_algebra)


def conjugation_residual(phi, i):
    """(id (x) Delta) Delta(b_i) Phi - Phi (Delta (x) id) Delta(b_i) over
    phi's host, for the associator value phi: quasi-coassociativity at
    basis i, written without Phi^-1; the empty tensor when the two sides
    are equal (see LegTensor.sub).  Over a commuting product that is the
    same tensor as ((id (x) Delta) Delta(b_i) - (Delta (x) id)
    Delta(b_i)) Phi, one product, formed only when the two coproducts
    differ."""
    host = phi.host
    d = LegTensor.from_element(host, {i: host.ring.one()}).coproduct_leg(0)
    lhs, d0 = d.coproduct_leg(1), d.coproduct_leg(0)
    if host.product_commutes():
        res = lhs.sub(d0)
        return res if res.is_zero() else res.mul(phi)
    return lhs.mul(phi).sub(phi.mul(d0))


def pentagon_residual(phi):
    """D_0(Phi) D_2(Phi) D_4(Phi) - D_3(Phi) D_1(Phi) for the associator
    value phi: d(Phi) = 1 with the inverted factors moved to the right
    side, as each D_i is an algebra map (_faces); the empty tensor when
    _closed(phi) says the two sides are equal, and their difference
    otherwise (see LegTensor.sub)."""
    closed, faces = _closed(phi)
    if closed:
        return LegTensor(phi.host, phi.arity + 1, {})
    return faces[0].sub(faces[1])


def verify_quasi(result):
    """Coassociator identities for a twist: conjugated coassociativity
    (conjugation_residual at each basis element), counitality of the
    associator, the pentagon (pentagon_residual) and, when an algebra is
    attached, quasi-associativity and the module law.  A failing check's
    residual counts the terms of those differences.  Only the module law
    reads Phi^-1, and forms it then (see twist)."""
    checks = []
    tw = result.twisted
    phi_t = result.phi_twisted()

    residuals = (conjugation_residual(phi_t.value, i).term_count() for i in range(tw.dim))
    checks.append(CheckOutcome.tally(
        "twisted-coproduct-conjugation",
        ((r, label) for r, label in zip(residuals, tw.labels) if r),
    ))

    rep = counital_report(phi_t)
    checks.append(rep.renamed("associator-counital"))

    res = pentagon_residual(phi_t.value)
    checks.append(
        CheckOutcome.from_residual(
            "associator-pentagon", res.term_count(), key_witness(res)
        )
    )

    if result.module is not None and result.twisted_algebra is not None:
        # x(yz) = sum phi^-1(x,y,z)_abc (ab)c, phi acting through the module;
        # the batteries are loaded only here
        from .batteries import ModuleAlgebra, verify_algebra

        AF = result.twisted_algebra
        module = ModuleAlgebra(tw, AF, result.module.action)
        got = {c.id: c for c in verify_algebra(AF, phi_t.inverse, module)}
        checks.append(got["quasi-associativity"].renamed("twisted-quasi-associativity"))
        checks.append(got["module-algebra-mult"].renamed("twisted-module-law"))
    return checks


def equivariant_twist_check(F, result=None):
    """True when the associator commutes with every iterated twisted
    coproduct image (invariant_report over the twisted host), i.e. the
    twist lands in an honestly coassociative corner of the quasi world.
    Counitality is not required here.  With no result, the twisted host
    and d(F) over it are formed here."""
    if F.arity != 2:
        raise ArityMismatch("equivariance test needs an arity-2 cochain")
    if result is not None:
        phi = result.phi_twisted()
    else:
        tw = _conjugated_host(F.host, F)
        phi = HopfCochain.deferred(tw, 3, coboundary(F.value, F.inverse).over(tw), None)
    return invariant_report(phi).ok


# ---------------------------------------------------------------------------
# gauge action


def _power(t, arity):
    """t (x) t (x) ... for a 1-leg tensor t: the product of its embeddings
    at each leg, formed on pieces."""
    return _product(t.leg_embed((leg,), arity) for leg in range(arity))


def gauge_act(g, F):
    """(g tensor g) F Delta(g^-1) for an invertible 1-cochain g."""
    if g.arity != 1:
        raise ArityMismatch("gauge element must have arity 1")
    val = _power(g.value, 2).mul(F.value).mul(g.inverse.coproduct_leg(0))
    inv = g.value.coproduct_leg(0).mul(F.inverse).mul(_power(g.inverse, 2))
    return HopfCochain(F.host, F.arity, val, inv, _trusted=True)


def gauge_equivariance_report(g, F):
    """d(gauge(g, F)) must equal the g x g x g conjugate of d(F)."""
    gF = gauge_act(g, F)
    lhs = coboundary(gF.value, gF.inverse)
    dF = coboundary(F.value, F.inverse)
    res = lhs.sub(_power(g.value, 3).mul(dF).mul(_power(g.inverse, 3)))
    return CheckOutcome.from_residual(
        "gauge-equivariance", res.term_count(), key_witness(res)
    )


# ---------------------------------------------------------------------------
# seeded samplers


def random_invertible_element_cochain(host, rng):
    """Dense small-integer 1-cochain, resampled until invertible, at most
    60 draws."""
    for _ in range(60):
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


def random_counital_two_cochain(host, rng):
    """1 + hbar * (counit-projected sparse perturbation), over a series host."""
    order = host.ring.hbar_order
    if order is None:
        raise ValueError("sampler needs a series-ring host")
    u = LegTensor(host, 2, _sparse_pairs(host, rng, 4))
    u = counital_projection(u)
    F = LegTensor.unit(host, 2).add(u.scale(Series.hbar(order)))
    return HopfCochain(host, 2, F)


def random_invariant_two_cochain(host, rng, group=None):
    """1 + hbar * (invariant perturbation): free over a host whose product
    commutes (read from the table, product_commutes), spanned by class sums
    sum(g x g) and central pairs otherwise."""
    order = host.ring.hbar_order
    if order is None:
        raise ValueError("sampler needs a series-ring host")
    if group is None:
        if not host.product_commutes():
            raise ValueError("noncommutative host needs its group")
        pairs = _sparse_pairs(host, rng, 3)
    else:
        blocks = [
            {(g, g): Fraction(1) for g in cls}
            for cls in group.conjugacy_classes()
        ]
        cen = group.center()
        blocks.extend({(z, w): Fraction(1)} for z in cen for w in cen)
        pairs = {}
        for _ in range(3):
            blk = blocks[rng.randrange(len(blocks))]
            c = rng.randint(1, 3) * (1 if rng.random() < 0.5 else -1)
            for k, v in blk.items():
                accumulate(pairs, k, c * v)
    u = LegTensor(host, 2, pairs)
    F = LegTensor.unit(host, 2).add(u.scale(Series.hbar(order)))
    return HopfCochain(host, 2, F)

"""Multiplicative group cochains, coboundaries, and the two flagship
2-cocycle examples: the Fano-plane sign cochain on (Z/2)^3 whose twisted
algebra is the octonions, and the antisymmetric-form cochain on Z^2 whose
twisted algebra is the noncommutative torus.  A group cochain is a
pointwise cochain over k^G, so its coboundary and its cocycle check are
the k^G case of cochain_engine's.

The group-cohomology and octonions suite bodies (group_cohomology_checks,
octonions_checks) are here, in the one module both of their runs load;
they load the algebra battery (batteries) when they run.
"""

from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from operator import mul
from weakref import WeakKeyDictionary

from .errors import NotUnital, WindowOverflow
from .multilinear import AlgebraPresentation, FiniteGroup, LegTensor, encode_key
from .reporting import CheckOutcome
from .scalars import ScalarRing, root_of_unity


class GroupCochain:
    """Total table G^n -> nonzero scalars, held as a pointwise tensor over
    k^G (_dual_host) with its pointwise inverse, formed on its first read.
    table, {key tuple: value}, is made from the tensor on its first read."""

    def __init__(self, group, arity, table):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        host = _dual_host(group)
        size = group.order
        values = {}
        for key, v in table.items():
            key = tuple(key)
            if len(key) != arity or not all(0 <= g < size for g in key):
                raise ValueError("bad key %r" % (key,))
            if not v:
                raise ValueError("cochain values must be invertible")
            values[encode_key(key, size)] = host.ring.coerce(v)
        if len(values) != size ** arity:
            raise ValueError("cochain table must be total")
        self.group, self.arity = group, arity
        self.tensor = LegTensor(host, arity, values, _checked=True)
        self._make_inverse = lambda: LegTensor(
            host, arity, {k: 1 / v for k, v in values.items()}, _checked=True
        )

    @staticmethod
    def _of(group, tensor, make_inverse):
        """The cochain of a pointwise tensor over _dual_host(group), whose
        inverse make_inverse() forms, unchecked, on its first read."""
        c = GroupCochain.__new__(GroupCochain)
        c.group, c.arity, c.tensor, c._make_inverse = group, tensor.arity, tensor, make_inverse
        return c

    @cached_property
    def inverse(self):
        return self._make_inverse()

    @cached_property
    def table(self):
        return dict(self.tensor.entries())


_HOSTS = WeakKeyDictionary()


def _dual_host(G):
    """The one k^G of G's cochains (LegTensor.eq compares hosts by identity)."""
    if G not in _HOSTS:
        from .constructors import dual_group_hopf

        _HOSTS[G] = dual_group_hopf(G)
    return _HOSTS[G]


def group_coboundary(c):
    """Multiplicative coboundary, the k^G case of cochain_engine.coboundary:
    k^G's coproduct is d(g) -> sum over xy = g of d(x) (x) d(y), so its faces
    are the group faces, the first dropping the leading argument.  d(c)^-1
    is formed (coboundary_inverse) only when read, as by a further d."""
    if isinstance(c, TorusCochain):
        return TorusCoboundary(c)
    from .cochain_engine import coboundary, coboundary_inverse

    value, inverse = c.tensor, c.inverse
    return GroupCochain._of(
        c.group, coboundary(value, inverse), lambda: coboundary_inverse(value, inverse)
    )


def _agree(id, lhs, rhs, labels, witness):
    """Whether two tensors over one k^G agree: the residual counts the keys
    where they differ, and witness(names) names the first by its labels."""
    if lhs.eq(rhs):
        return CheckOutcome.from_residual(id, 0)
    diff = lhs.sub(rhs)
    names = tuple(labels[g] for g in diff.entries()[0][0])
    return CheckOutcome.from_residual(id, diff.term_count(), witness(names))


def is_constant_one(c):
    unit = LegTensor.unit(c.tensor.host, c.arity)
    return _agree("coboundary-trivial", c.tensor, unit, c.group.labels, str)


def is_cocycle(c, window=None):
    """d(c) = 1 exhaustively, for a 2-cochain F(a,b)F(ab,c) = F(a,bc)F(b,c),
    read as "c's even faces equal its odd faces" (cochain_engine._faces).

    For the lattice cochain a window radius is required.
    """
    if isinstance(c, TorusCochain):
        if window is None:
            raise ValueError("lattice cochains need a window")
        return c.cocycle_report(window)
    from .cochain_engine import _faces

    even, odd = _faces(c.tensor)
    return _agree("cocycle", even, odd, c.group.labels, lambda names: "(%s)" % ",".join(names))


def is_unital(c):
    if isinstance(c, TorusCochain):
        # F(0, a) = F(a, 0) = 1 at every point a of the radius-2 square
        o = (0, 0)
        return CheckOutcome.tally("unital", (
            (1, repr(a)) for a in _square(2) if c.value(o, a) != 1 or c.value(a, o) != 1
        ))
    if c.arity != 2:
        raise ValueError("is_unital applies to 2-cochains")
    G = c.group
    e = G.identity
    return CheckOutcome.tally("unital", (
        (1, G.labels[g]) for g in range(G.order)
        if c.table[(e, g)] != 1 or c.table[(g, e)] != 1
    ))


def twisted_group_algebra(G, F):
    """k_F[G]: basis g with g*h = F(g,h) gh, and the associator dF under the
    convention a*(b*c) = dF(a,b,c) (a*b)*c; dF is 1 everywhere exactly when
    F is a cocycle.

    Requires a unital cochain.
    """
    if not is_unital(F).ok:
        raise NotUnital("twist cochain is not unital")
    ring = ScalarRing()
    mult = {
        (i, j): {G.mul(i, j): F.table[(i, j)]}
        for i in range(G.order)
        for j in range(G.order)
    }
    unit = [
        ring.one() if g == G.identity else ring.zero()
        for g in range(G.order)
    ]
    return AlgebraPresentation(
        G.order, list(G.labels), ring, mult, unit,
        associator=dict(group_coboundary(F).table),
    )


# ---------------------------------------------------------------------------
# octonions from the Fano plane


# cyclically ordered lines; adjacent pairs in cyclic order multiply with +1
FANO_LINES = (
    (6, 1, 7),
    (7, 2, 5),
    (5, 3, 6),
    (2, 4, 6),
    (3, 4, 7),
    (1, 4, 5),
    (1, 2, 3),
)

# imaginary unit e_i corresponds to this sign-vector bit pattern in (Z/2)^3
_FANO_BITS = (0, 4, 2, 6, 7, 3, 5, 1)


def fano_octonions():
    """The octonion algebra as (Z/2)^3 twisted by the Fano sign cochain.

    Returns (group, cochain, algebra); basis index i is the octonion unit
    e_i, with e_0 the identity.
    """
    bits_to_e = {b: i for i, b in enumerate(_FANO_BITS)}
    table = [
        [bits_to_e[_FANO_BITS[i] ^ _FANO_BITS[j]] for j in range(8)]
        for i in range(8)
    ]
    labels = ["e%d" % i for i in range(8)]
    G = FiniteGroup(8, table, labels)

    plus = {}
    for a, b, c in FANO_LINES:
        # product of the third point, with sign +1 along the cyclic order
        if G.mul(a, b) != c or G.mul(b, c) != a or G.mul(c, a) != b:
            raise AssertionError("line (%d,%d,%d) is not closed" % (a, b, c))
        plus.update({(a, b): c, (b, c): a, (c, a): b})

    F = {}
    for i in range(8):
        for j in range(8):
            if i == 0 or j == 0:
                F[(i, j)] = Fraction(1)
            elif i == j:
                F[(i, j)] = Fraction(-1)
            elif (i, j) in plus:
                F[(i, j)] = Fraction(1)
            else:
                F[(i, j)] = Fraction(-1)
    cochain = GroupCochain(G, 2, F)
    algebra = twisted_group_algebra(G, cochain)
    return G, cochain, algebra


def octonion_conjugate(u):
    """Negate the imaginary coordinates of a sparse octonion vector."""
    return {k: (v if k == 0 else -v) for k, v in u.items() if v}


def octonion_norm(algebra, u):
    """The coefficient of e0 in u * conj(u); the imaginary part must vanish."""
    prod = algebra.elem_mul(dict(u), octonion_conjugate(u))
    if any(k != 0 and v for k, v in prod.items()):
        raise ValueError("norm form is not real on %r" % (u,))
    return prod.get(0, Fraction(0))


# ---------------------------------------------------------------------------
# the lattice cochain behind the noncommutative torus


class TorusCochain:
    """F(U^j V^k, U^m V^n) = zeta(2q)^(p (j n - k m)) for theta = p/q.

    Formula-backed because lattice products escape any finite window."""

    arity = 2

    def __init__(self, theta):
        theta = Fraction(theta)
        self.theta = theta
        self.p = theta.numerator
        self.q = theta.denominator
        self.two_q = 2 * self.q

    def exponent(self, a, b):
        (j, k), (m, n) = a, b
        return (self.p * (j * n - k * m)) % self.two_q

    def value(self, a, b):
        """The cached root of unity, so products in the cyclotomic window
        are exponent additions."""
        return root_of_unity(self.exponent(a, b), self.two_q)

    def cocycle_report(self, window):
        """The coboundary of exponent() must vanish on a radius-3 subwindow,
        and the cocycle identity must hold in literal cyclotomics on a
        radius-2 subwindow.  Both sweeps (_sweep) examine every triple but
        evaluate each pair of points they read once, and combine each pair
        of value classes once: exponents by addition mod 2q, values by
        Cyclotomic products, so at most (2q)^2 literal products."""
        w3 = min(window, 3)
        checks = [
            TorusCoboundary(self).trivial_on_window(w3).renamed(
                "cocycle-exponent-window-%d" % w3
            )
        ]
        w2 = min(window, 2)
        checks.append(CheckOutcome.tally(
            "cocycle-cyclotomic-window-%d" % w2, _sweep(self.value, w2, mul)
        ))
        return checks


def _square(radius):
    """The lattice points with |j|, |k| <= radius, row by row."""
    return [
        (j, k) for j in range(-radius, radius + 1) for k in range(-radius, radius + 1)
    ]


def _sweep(f, window, op):
    """(1, witness) for each triple a, b, c of the radius-`window` square,
    in order, where op(f(a, b), f(ab, c)) != op(f(a, bc), f(b, c)): the
    failures of CheckOutcome.tally.

    f is evaluated once per pair, into two tables over the points of the
    square of twice the radius, where ab and bc lie, numbered in the order
    of _square: left[x][k] is f(x, pts[k]) and right[i][y] is f(pts[i], y),
    each held as the number of its class of values.  A value's class is
    found by identity first, then by == against the classes' first values
    (a Cyclotomic has no hash); every value numbered is kept, so no id is
    reused during the sweep.  op is applied once per pair of classes, in
    rows[u][v].  For each a, b the two sides are rows of class numbers over
    c, compared by one list ==, and only a row that differs is walked c by
    c.  The row op(f(a, b), f(ab, c)) depends only on the class of f(a, b)
    and on ab, so it is formed once per such pair that occurs (lhs_rows),
    at most once per a, b.  at[i] is the number of pts[i] and plus[i][k]
    that of pts[i] + pts[k].
    """
    reps, kept, ids = [], [], {}

    def class_of(v):
        n = ids.get(id(v))
        if n is None:
            n = next((i for i, r in enumerate(reps) if r == v), len(reps))
            if n == len(reps):
                reps.append(v)
            kept.append(v)
            ids[id(v)] = n
        return n

    def combine(u, v):
        return class_of(op(reps[u], reps[v]))

    pts = _square(window)
    wide = _square(2 * window)
    number = {x: n for n, x in enumerate(wide)}
    at = [number[a] for a in pts]
    plus = [[number[(a[0] + b[0], a[1] + b[1])] for b in pts] for a in pts]
    left = [[class_of(f(x, c)) for c in pts] for x in wide]
    right = [[class_of(f(a, y)) for y in wide] for a in pts]
    rows = [_Lazy(partial(combine, u)) for u in range(len(reps))]
    w = len(wide)
    lhs_rows = _Lazy(lambda k: list(map(rows[k // w].__getitem__, left[k % w])))
    get = dict.__getitem__
    for a, ra, a_plus in zip(pts, right, plus):
        ops = [rows[u] for u in ra]
        for b, b_at, b_plus, ab in zip(pts, at, plus, a_plus):
            lhs = lhs_rows[ra[b_at] * w + ab]
            rhs = list(map(get, map(ops.__getitem__, b_plus), left[b_at]))
            if lhs != rhs:
                for c, x, y in zip(pts, lhs, rhs):
                    if x != y:
                        yield 1, "%r,%r,%r" % (a, b, c)


class _Lazy(dict):
    """A dict that fills a missing key k with fill(k) on its first read."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, k):
        v = self[k] = self.fill(k)
        return v


class TorusCoboundary:
    """Lazy coboundary of the lattice cochain; everything in exponents."""

    arity = 3

    def __init__(self, c):
        self.base = c

    def exponent(self, a, b, c):
        e = self.base.exponent
        ab = (a[0] + b[0], a[1] + b[1])
        bc = (b[0] + c[0], b[1] + c[1])
        return (e(b, c) - e(ab, c) + e(a, bc) - e(a, b)) % self.base.two_q

    def value(self, a, b, c):
        return root_of_unity(self.exponent(a, b, c), self.base.two_q)

    def trivial_on_window(self, window):
        """Count the triples of the radius-`window` square where exponent()
        is nonzero; the first one is the witness.  That is _sweep with op
        the sum of exponents mod 2q, so base.exponent is called once per
        pair of points, not four times per triple."""
        two_q = self.base.two_q
        return CheckOutcome.tally("coboundary-trivial-window-%d" % window, _sweep(
            self.base.exponent, window, lambda x, y: (x + y) % two_q
        ))


def torus_cochain(theta, window):
    """The lattice 2-cochain for theta, plus its window radius."""
    if window < 1:
        raise ValueError("window must be positive")
    return TorusCochain(theta), window


class TorusWindowAlgebra:
    """Twisted lattice algebra on the window |j|,|k| <= W; products that
    leave the window raise WindowOverflow."""

    def __init__(self, cochain, window):
        self.cochain = cochain
        self.window = window

    def mul_basis(self, a, b):
        s = (a[0] + b[0], a[1] + b[1])
        if max(abs(s[0]), abs(s[1])) > self.window:
            raise WindowOverflow("product %r escapes window %d" % (s, self.window))
        return s, self.cochain.value(a, b)

    def commutation_report(self):
        """U * V equals e^(2 pi i theta) V * U, exactly in cyclotomics."""
        U, V = (1, 0), (0, 1)
        s1, c1 = self.mul_basis(U, V)
        s2, c2 = self.mul_basis(V, U)
        factor = root_of_unity(
            self.cochain.p % self.cochain.q, self.cochain.q
        )
        ok = s1 == s2 and c1 == factor * c2
        return CheckOutcome.from_residual(
            "uv-commutation", 0 if ok else 1,
            None if ok else "U*V vs V*U",
        )


def normalized(c):
    """c divided by its value at (e, ..., e).  The coboundary of a
    normalized 1-cochain is unital: dF(e, g) = F(e)."""
    e = (c.group.identity,) * c.arity
    ce = c.table[e]
    return GroupCochain(c.group, c.arity, {k: v / ce for k, v in c.table.items()})


def random_group_cochain(G, arity, rng):
    """Seeded nonzero rational table, handy for coboundary batteries."""
    table = {}
    for key in product(range(G.order), repeat=arity):
        num = 0
        while num == 0:
            num = rng.randint(-5, 5)
        table[key] = Fraction(num, rng.randint(1, 5))
    return GroupCochain(G, arity, table)


# ---------------------------------------------------------------------------
# the group-cohomology and octonions suites


def _render(x):
    """The grammar text of a scalar in a failing check's witness; grammar
    is loaded only when a check fails."""
    from .grammar import render

    return render(x)


def group_cohomology_checks(rng, order, theta):
    from .constructors import cyclic_group, elementary_abelian_2, symmetric_3
    from .batteries import verify_algebra

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


def octonions_checks(rng, order, theta):
    from .batteries import verify_algebra

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

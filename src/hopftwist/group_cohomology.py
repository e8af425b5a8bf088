"""Multiplicative group cochains, coboundaries, and the two flagship
2-cocycle examples: the Fano-plane sign cochain on (Z/2)^3 whose twisted
algebra is the octonions, and the antisymmetric-form cochain on Z^2 whose
twisted algebra is the noncommutative torus.
"""

from fractions import Fraction
from functools import partial

from .constructors import FiniteGroup
from .errors import NotUnital, WindowOverflow
from .multilinear import AlgebraPresentation
from .reporting import CheckOutcome
from .scalars import ScalarRing, root_of_unity


class GroupCochain:
    """Total table G^n -> nonzero scalars."""

    def __init__(self, group, arity, table):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.group = group
        self.arity = arity
        self.table = {}
        size = group.order
        for key, v in table.items():
            key = tuple(key)
            if len(key) != arity or not all(0 <= g < size for g in key):
                raise ValueError("bad key %r" % (key,))
            if not v:
                raise ValueError("cochain values must be invertible")
            self.table[key] = v
        if len(self.table) != size ** arity:
            raise ValueError("cochain table must be total")

    def value(self, *key):
        return self.table[key]

    def __eq__(self, other):
        if not isinstance(other, GroupCochain):
            return NotImplemented
        return (
            self.group is other.group
            and self.arity == other.arity
            and all(self.table[k] == other.table[k] for k in self.table)
        )

    __hash__ = None


def _keys(order, arity):
    out = [()]
    for _ in range(arity):
        out = [k + (g,) for k in out for g in range(order)]
    return out


def group_coboundary(c):
    """Multiplicative coboundary: alternating product over dropped or merged
    slots, the first factor dropping the leading argument.

    Each entry is one quotient of two products.  A rational value enters as
    its integer numerator and denominator, so a rational entry is one
    Fraction of two integer products; any other value enters as itself over
    1."""
    if isinstance(c, TorusCochain):
        return TorusCoboundary(c)
    G = c.group
    n = c.arity
    parts = {key: _ratio(v) for key, v in c.table.items()}
    table = {}
    for key in _keys(G.order, n + 1):
        num = den = 1
        for i in range(n + 2):
            if i == 0:
                sub = key[1:]
            elif i == n + 1:
                sub = key[:-1]
            else:
                sub = key[: i - 1] + (G.mul(key[i - 1], key[i]),) + key[i + 1 :]
            p, q = parts[sub]
            if i % 2:
                num, den = num * q, den * p
            else:
                num, den = num * p, den * q
        if type(num) is int and type(den) is int:
            table[key] = Fraction(num, den)
        else:
            table[key] = num / den
    return GroupCochain(G, n + 1, table)


def _ratio(v):
    """(numerator, denominator) of a cochain value: integers when it is
    rational, (v, 1) otherwise."""
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    return v, 1


def is_constant_one(c):
    labels = c.group.labels
    return CheckOutcome.tally("coboundary-trivial", (
        (1, str(tuple(labels[g] for g in k))) for k, v in c.table.items() if v != 1
    ))


def is_cocycle(c, window=None):
    """2-cocycle identity F(a,b)F(ab,c) = F(a,bc)F(b,c), exhaustively.

    For the lattice cochain a window radius is required.
    """
    if isinstance(c, TorusCochain):
        if window is None:
            raise ValueError("lattice cochains need a window")
        return c.cocycle_report(window)
    if c.arity != 2:
        raise ValueError("is_cocycle applies to 2-cochains")
    G, t = c.group, c.table

    def failures():
        for a in range(G.order):
            for b in range(G.order):
                fab, ab = t[(a, b)], G.mul(a, b)
                for d in range(G.order):
                    if fab * t[(ab, d)] != t[(a, G.mul(b, d))] * t[(b, d)]:
                        yield 1, "(%s,%s,%s)" % (G.labels[a], G.labels[b], G.labels[d])

    return CheckOutcome.tally("cocycle", failures())


def is_unital(c):
    if isinstance(c, TorusCochain):
        # exponent form vanishes whenever either argument is the origin
        return CheckOutcome.from_residual("unital", 0)
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
        radius-2 subwindow.  Both sweeps examine every triple but evaluate
        each pair of points they read once (see _sweep)."""
        w3 = min(window, 3)
        checks = [
            TorusCoboundary(self).trivial_on_window(w3).renamed(
                "cocycle-exponent-window-%d" % w3
            )
        ]
        w2 = min(window, 2)
        checks.append(CheckOutcome.tally(
            "cocycle-cyclotomic-window-%d" % w2, _sweep(self.value, w2, _cocycle_differs)
        ))
        return checks


def _square(radius):
    """The lattice points with |j|, |k| <= radius, row by row."""
    return [
        (j, k) for j in range(-radius, radius + 1) for k in range(-radius, radius + 1)
    ]


def _sweep(f, window, residual):
    """(1, witness) for each triple a, b, c of the radius-`window` square,
    in order, where residual(f(b, c), f(ab, c), f(a, bc), f(a, b)) is
    nonzero: the failures of CheckOutcome.tally.

    f is evaluated once per pair, into two tables over the points of the
    square of twice the radius, where ab and bc lie, numbered in the order
    of _square: left[x][k] = f(x, pts[k]) and right[i][y] = f(pts[i], y).
    at[i] is the number of pts[i] and plus[i][k] that of pts[i] + pts[k].
    """
    pts = _square(window)
    wide = _square(2 * window)
    number = {x: n for n, x in enumerate(wide)}
    at = [number[a] for a in pts]
    plus = [[number[(a[0] + b[0], a[1] + b[1])] for b in pts] for a in pts]
    left = [[f(x, c) for c in pts] for x in wide]
    right = [[f(a, y) for y in wide] for a in pts]
    for a, ra, a_plus in zip(pts, right, plus):
        for b, b_at, b_plus, ab in zip(pts, at, plus, a_plus):
            f_ab = ra[b_at]
            for c, f_bc, f_ab_c, bc in zip(pts, left[b_at], left[ab], b_plus):
                if residual(f_bc, f_ab_c, ra[bc], f_ab):
                    yield 1, "%r,%r,%r" % (a, b, c)


def _coboundary_exponent(two_q, e_bc, e_ab_c, e_a_bc, e_ab):
    """Exponent of dF(a, b, c) = F(b, c) F(ab, c)^-1 F(a, bc) F(a, b)^-1
    from the four exponents of F."""
    return (e_bc - e_ab_c + e_a_bc - e_ab) % two_q


def _cocycle_differs(f_bc, f_ab_c, f_a_bc, f_ab):
    """Whether F(a, b) F(ab, c) != F(a, bc) F(b, c), in literal values."""
    return f_ab * f_ab_c != f_a_bc * f_bc


class TorusCoboundary:
    """Lazy coboundary of the lattice cochain; everything in exponents."""

    arity = 3

    def __init__(self, c):
        self.base = c

    def exponent(self, a, b, c):
        e = self.base.exponent
        ab = (a[0] + b[0], a[1] + b[1])
        bc = (b[0] + c[0], b[1] + c[1])
        return _coboundary_exponent(
            self.base.two_q, e(b, c), e(ab, c), e(a, bc), e(a, b)
        )

    def value(self, a, b, c):
        return root_of_unity(self.exponent(a, b, c), self.base.two_q)

    def trivial_on_window(self, window):
        """Count the triples of the radius-`window` square where exponent()
        is nonzero; the first one is the witness.  base.exponent is called
        once per pair of points, not four times per triple (see _sweep)."""
        return CheckOutcome.tally("coboundary-trivial-window-%d" % window, _sweep(
            self.base.exponent, window, partial(_coboundary_exponent, self.base.two_q)
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
    for key in _keys(G.order, arity):
        num = 0
        while num == 0:
            num = rng.randint(-5, 5)
        table[key] = Fraction(num, rng.randint(1, 5))
    return GroupCochain(G, arity, table)

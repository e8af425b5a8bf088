"""Multiplicative group cochains, coboundaries, and the two flagship
2-cocycle examples: the Fano-plane sign cochain on (Z/2)^3 whose twisted
algebra is the octonions, and the antisymmetric-form cochain on Z^2 whose
twisted algebra is the noncommutative torus.
"""

from fractions import Fraction
from math import gcd

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
    slots, the first factor dropping the leading argument."""
    if isinstance(c, TorusCochain):
        return TorusCoboundary(c)
    G = c.group
    n = c.arity
    table = {}
    for key in _keys(G.order, n + 1):
        acc = Fraction(1)
        for i in range(n + 2):
            if i == 0:
                sub = key[1:]
            elif i == n + 1:
                sub = key[:-1]
            else:
                sub = key[: i - 1] + (G.mul(key[i - 1], key[i]),) + key[i + 1 :]
            v = c.table[sub]
            acc = acc * v if i % 2 == 0 else acc / v
        table[key] = acc
    return GroupCochain(G, n + 1, table)


def is_constant_one(c):
    bad = 0
    wit = None
    for k, v in c.table.items():
        if v != 1:
            bad += 1
            if wit is None:
                wit = str(tuple(c.group.labels[g] for g in k))
    return CheckOutcome.from_residual("coboundary-trivial", bad, wit)


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
    G = c.group
    bad = 0
    wit = None
    for a in range(G.order):
        for b in range(G.order):
            fab = c.table[(a, b)]
            ab = G.mul(a, b)
            for d in range(G.order):
                lhs = fab * c.table[(ab, d)]
                rhs = c.table[(a, G.mul(b, d))] * c.table[(b, d)]
                if lhs != rhs:
                    bad += 1
                    if wit is None:
                        wit = "(%s,%s,%s)" % (
                            G.labels[a], G.labels[b], G.labels[d],
                        )
    return CheckOutcome.from_residual("cocycle", bad, wit)


def is_unital(c):
    if isinstance(c, TorusCochain):
        # exponent form vanishes whenever either argument is the origin
        return CheckOutcome.passed("unital")
    if c.arity != 2:
        raise ValueError("is_unital applies to 2-cochains")
    G = c.group
    e = G.identity
    bad = 0
    wit = None
    for g in range(G.order):
        if c.table[(e, g)] != 1 or c.table[(g, e)] != 1:
            bad += 1
            if wit is None:
                wit = G.labels[g]
    return CheckOutcome.from_residual("unital", bad, wit)


def twisted_group_algebra(G, F):
    """k_F[G]: basis g with g*h = F(g,h) gh.

    Requires a unital cochain.  If F is a cocycle the result is flagged
    associative; otherwise quasi, with associator dF under the convention
    a*(b*c) = dF(a,b,c) (a*b)*c.
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
    if is_cocycle(F).ok:
        return AlgebraPresentation(
            G.order, list(G.labels), ring, mult, unit,
            assoc_flag="associative",
        )
    dF = group_coboundary(F)
    associator = {k: v for k, v in dF.table.items()}
    return AlgebraPresentation(
        G.order, list(G.labels), ring, mult, unit,
        assoc_flag="quasi", associator=associator,
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
        return root_of_unity(self.exponent(a, b), self.two_q)

    def cocycle_report(self, window):
        """The coboundary of exponent() must vanish on a radius-3 subwindow,
        and the cocycle identity must hold in literal cyclotomics on a
        radius-2 subwindow."""
        w3 = min(window, 3)
        checks = [
            TorusCoboundary(self).trivial_on_window(w3).renamed(
                "cocycle-exponent-window-%d" % w3
            )
        ]
        w2 = min(window, 2)
        pts = [
            (j, k) for j in range(-w2, w2 + 1) for k in range(-w2, w2 + 1)
        ]
        bad = 0
        wit = None
        for a in pts:
            for b in pts:
                ab = (a[0] + b[0], a[1] + b[1])
                fab = self.value(a, b)
                for c in pts:
                    bc = (b[0] + c[0], b[1] + c[1])
                    lhs = fab * self.value(ab, c)
                    rhs = self.value(a, bc) * self.value(b, c)
                    if lhs != rhs:
                        bad += 1
                        if wit is None:
                            wit = "%r,%r,%r" % (a, b, c)
        checks.append(
            CheckOutcome.from_residual(
                "cocycle-cyclotomic-window-%d" % w2, bad, wit
            )
        )
        return checks


class TorusCoboundary:
    """Lazy coboundary of the lattice cochain; everything in exponents."""

    arity = 3

    def __init__(self, c):
        self.base = c

    def exponent(self, a, b, c):
        add = lambda u, v: (u[0] + v[0], u[1] + v[1])  # noqa: E731
        e = self.base.exponent
        raw = e(b, c) - e(add(a, b), c) + e(a, add(b, c)) - e(a, b)
        return raw % self.base.two_q

    def value(self, a, b, c):
        return root_of_unity(self.exponent(a, b, c), self.base.two_q)

    def trivial_on_window(self, window):
        pts = [
            (j, k)
            for j in range(-window, window + 1)
            for k in range(-window, window + 1)
        ]
        bad = 0
        wit = None
        for a in pts:
            for b in pts:
                for c in pts:
                    if self.exponent(a, b, c):
                        bad += 1
                        if wit is None:
                            wit = "%r,%r,%r" % (a, b, c)
        return CheckOutcome.from_residual(
            "coboundary-trivial-window-%d" % window, bad, wit
        )


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


def random_group_cochain(G, arity, rng):
    """Seeded nonzero rational table, handy for coboundary batteries."""
    table = {}
    for key in _keys(G.order, arity):
        num = 0
        while num == 0:
            num = rng.randint(-5, 5)
        table[key] = Fraction(num, rng.randint(1, 5))
    return GroupCochain(G, arity, table)

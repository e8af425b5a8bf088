"""The groups of the suites (the FiniteGroup class is in multilinear),
their group algebras and duals, and the dual's action on the group
algebra.  These are what the cochain workloads and graded build on; the
sample hosts that only the hopf-axioms suite and the tests check (Taft
algebras, the shuffle bialgebra, the anti-commutative Laurent window host,
the chain-complex/comodule dictionary and the pairing reports) are in
sample_hosts, so a cochain process never compiles them.
"""

from .multilinear import AlgebraPresentation, FiniteGroup, HopfPresentation
from .scalars import Cyclotomic, ScalarRing, root_of_unity

# ---------------------------------------------------------------------------
# finite groups


def cyclic_group(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + ["g" if i == 1 else "g^%d" % i for i in range(1, n)]
    return FiniteGroup(n, table, labels)


def direct_product(A, B):
    n = A.order * B.order

    def idx(a, b):
        return a * B.order + b

    table = [[0] * n for _ in range(n)]
    labels = [None] * n
    for a1 in range(A.order):
        for b1 in range(B.order):
            labels[idx(a1, b1)] = "(%s,%s)" % (A.labels[a1], B.labels[b1])
            for a2 in range(A.order):
                for b2 in range(B.order):
                    table[idx(a1, b1)][idx(a2, b2)] = idx(
                        A.mul(a1, a2), B.mul(b1, b2)
                    )
    return FiniteGroup(n, table, labels)


def elementary_abelian_2(k):
    """(Z/2)^k with indices read as bit vectors, XOR multiplication."""
    n = 1 << k
    table = [[i ^ j for j in range(n)] for i in range(n)]
    labels = ["e" + format(i, "0%db" % k) for i in range(n)]
    return FiniteGroup(n, table, labels)


def symmetric_3():
    perms = [
        (0, 1, 2),
        (1, 0, 2),
        (0, 2, 1),
        (2, 1, 0),
        (1, 2, 0),
        (2, 0, 1),
    ]
    labels = ["e", "(12)", "(23)", "(13)", "(123)", "(132)"]
    pos = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    table = [
        [pos[compose(perms[i], perms[j])] for j in range(6)] for i in range(6)
    ]
    return FiniteGroup(6, table, labels)


def dihedral_4():
    """Symmetries of the square: r^4 = s^2 = e, s r s = r^-1.  Order 8."""
    n = 8

    def idx(a, b):
        return a + 4 * b  # r^a s^b

    table = [[0] * n for _ in range(n)]
    labels = [None] * n
    for a in range(4):
        for b in range(2):
            labels[idx(a, b)] = ("r^%d" % a if a else "e") + (" s" if b else "")
            for c in range(4):
                for d in range(2):
                    # (r^a s^b)(r^c s^d) = r^(a + c*(-1)^b) s^(b+d)
                    aa = (a + (c if b == 0 else -c)) % 4
                    table[idx(a, b)][idx(c, d)] = idx(aa, (b + d) % 2)
    return FiniteGroup(n, table, labels)


def pauli_8():
    """Order-8 group of Gaussian-integer Pauli matrices {+-1, +-iX, +-iY, +-iZ}."""
    i = root_of_unity(1, 4)
    one = Cyclotomic.from_rational(1)
    zero = Cyclotomic.from_rational(0)
    I2 = ((one, zero), (zero, one))
    X = ((zero, one), (one, zero))
    Z = ((one, zero), (zero, -one))
    Y = ((zero, -i), (i, zero))

    def smul(c, m):
        return tuple(tuple(c * x for x in row) for row in m)

    def mmul(a, b):
        return tuple(
            tuple(
                a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in range(2)
            )
            for r in range(2)
        )

    mats = [
        I2,
        smul(-one, I2),
        smul(i, X),
        smul(-i, X),
        smul(i, Y),
        smul(-i, Y),
        smul(i, Z),
        smul(-i, Z),
    ]
    labels = ["1", "-1", "iX", "-iX", "iY", "-iY", "iZ", "-iZ"]

    def find(m):
        for t, cand in enumerate(mats):
            if all(
                cand[r][c] == m[r][c] for r in range(2) for c in range(2)
            ):
                return t
        raise ValueError("product escaped the matrix set")

    table = [[find(mmul(a, b)) for b in mats] for a in mats]
    return FiniteGroup(8, table, labels)


# ---------------------------------------------------------------------------
# group algebra and its dual


def group_algebra(G, ring=None):
    ring = ring or ScalarRing()
    one = ring.one()
    mult = {
        (i, j): {G.mul(i, j): one}
        for i in range(G.order)
        for j in range(G.order)
    }
    unit = [one if g == G.identity else ring.zero() for g in range(G.order)]
    coproduct = {i: {(i, i): one} for i in range(G.order)}
    counit = [one] * G.order
    antipode = [
        [one if j == G.inv[i] else ring.zero() for j in range(G.order)]
        for i in range(G.order)
    ]
    return HopfPresentation(
        G.order,
        ["[%s]" % s for s in G.labels],
        ring,
        mult,
        unit,
        coproduct,
        counit,
        antipode,
        name="k[G%d]" % G.order,
    )


def dual_group_hopf(G, ring=None):
    ring = ring or ScalarRing()
    one = ring.one()
    zero = ring.zero()
    mult = {(i, i): {i: one} for i in range(G.order)}
    unit = [one] * G.order
    coproduct = {}
    for g in range(G.order):
        cell = {}
        for a in range(G.order):
            for b in range(G.order):
                if G.mul(a, b) == g:
                    cell[(a, b)] = one
        coproduct[g] = cell
    counit = [one if g == G.identity else zero for g in range(G.order)]
    antipode = [
        [one if j == G.inv[i] else zero for j in range(G.order)]
        for i in range(G.order)
    ]
    return HopfPresentation(
        G.order,
        ["d(%s)" % s for s in G.labels],
        ring,
        mult,
        unit,
        coproduct,
        counit,
        antipode,
        name="k^G%d" % G.order,
    )


def dual_action_module(G, ring=None):
    """k^G acting on k[G] by projections: d(g) acts on [h] as [g=h] [h]."""
    from .batteries import ModuleAlgebra

    H = dual_group_hopf(G, ring)
    ring = H.ring
    kg = group_algebra(G, ring)
    A = AlgebraPresentation(kg.dim, kg.labels, ring, kg.mult, kg.unit)
    action = {
        (g, g): {g: ring.one()} for g in range(G.order)
    }
    return ModuleAlgebra(H, A, action)

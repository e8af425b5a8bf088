"""Concrete hosts: finite groups, their group algebras and duals, Taft
algebras, the shuffle bialgebra, the anti-commutative Laurent window host,
and the chain-complex/comodule dictionary.
"""

from fractions import Fraction

from .errors import (
    LengthOverflow,
    NotAComplex,
    NotPrimitiveRoot,
    WindowOverflow,
)
from .multilinear import (
    AlgebraPresentation,
    HopfPresentation,
    ModuleAlgebra,
    _clean,
)
from .reporting import CheckOutcome
from .scalars import Cyclotomic, ScalarRing, root_of_unity

# ---------------------------------------------------------------------------
# finite groups


class FiniteGroup:
    """Multiplication-table group on indices 0..order-1.

    Tables only; order capped at 16 so every validation stays exhaustive.
    """

    def __init__(self, order, table, labels=None, validate=True):
        if order > 16:
            raise ValueError("table groups are capped at order 16")
        self.order = order
        self.table = [list(row) for row in table]
        self.labels = list(labels) if labels else [str(i) for i in range(order)]
        if len(self.table) != order or any(
            len(row) != order for row in self.table
        ):
            raise ValueError("table shape mismatch")
        ident = None
        for e in range(order):
            if all(
                self.table[e][g] == g and self.table[g][e] == g
                for g in range(order)
            ):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        self.identity = ident
        if validate:
            rng = set(range(order))
            for i in range(order):
                if set(self.table[i]) != rng:
                    raise ValueError("row %d is not a permutation" % i)
                if {self.table[j][i] for j in range(order)} != rng:
                    raise ValueError("column %d is not a permutation" % i)
            for a in range(order):
                for b in range(order):
                    ab = self.table[a][b]
                    for c in range(order):
                        if self.table[ab][c] != self.table[a][self.table[b][c]]:
                            raise ValueError(
                                "associativity fails at (%d,%d,%d)" % (a, b, c)
                            )
        self.inv = [0] * order
        for g in range(order):
            found = None
            for h in range(order):
                if self.table[g][h] == ident and self.table[h][g] == ident:
                    found = h
                    break
            if found is None:
                raise ValueError("element %d has no two-sided inverse" % g)
            self.inv[g] = found

    def mul(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.inv[a]

    def elements(self):
        return range(self.order)

    def is_abelian(self):
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def center(self):
        return [
            z
            for z in range(self.order)
            if all(self.table[z][g] == self.table[g][z] for g in range(self.order))
        ]

    def conjugacy_classes(self):
        seen = set()
        classes = []
        for g in range(self.order):
            if g in seen:
                continue
            orb = set()
            for h in range(self.order):
                orb.add(self.table[self.table[h][g]][self.inv[h]])
            classes.append(sorted(orb))
            seen |= orb
        return classes

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


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
        commutative=G.is_abelian(),
        cocommutative=True,
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
        commutative=True,
        cocommutative=G.is_abelian(),
        name="k^G%d" % G.order,
    )


def dual_action_module(G, ring=None):
    """k^G acting on k[G] by projections: d(g) acts on [h] as [g=h] [h]."""
    H = dual_group_hopf(G, ring)
    ring = H.ring
    kg = group_algebra(G, ring)
    A = AlgebraPresentation(
        kg.dim, kg.labels, ring, kg.mult, kg.unit, assoc_flag="associative"
    )
    action = {
        (g, g): {g: ring.one()} for g in range(G.order)
    }
    return ModuleAlgebra(H, A, action)


def z2_dual_iso_report():
    """The rank-2 dual pair: d(+-) -> (1 +- g)/2 is a Hopf isomorphism."""
    G = cyclic_group(2)
    H = dual_group_hopf(G)
    K = group_algebra(G)
    half = Fraction(1, 2)
    # images of the delta basis in k[Z2]
    images = [{0: half, 1: half}, {0: half, 1: -half}]
    checks = []
    bad, wit = 0, None
    for i in range(2):
        for j in range(2):
            lhs_vec = H.basis_mul(i, j)
            lhs = {}
            for t, c in lhs_vec.items():
                for k, v in images[t].items():
                    r = lhs.get(k, 0) + c * v
                    if r:
                        lhs[k] = r
                    else:
                        lhs.pop(k, None)
            rhs = K.elem_mul(images[i], images[j])
            if lhs != rhs:
                bad += 1
                wit = wit or "(%d,%d)" % (i, j)
    checks.append(CheckOutcome.from_residual("z2-iso-mult", bad, wit))

    bad, wit = 0, None
    for i in range(2):
        # push the coproduct through the isomorphism on both sides
        lhs = {}
        for (a, b), c in H.basis_coproduct(i).items():
            for ka, va in images[a].items():
                for kb, vb in images[b].items():
                    key = (ka, kb)
                    r = lhs.get(key, 0) + c * va * vb
                    if r:
                        lhs[key] = r
                    else:
                        lhs.pop(key, None)
        rhs = K.elem_coproduct(images[i])
        if lhs != rhs:
            bad += 1
            wit = wit or str(i)
    checks.append(CheckOutcome.from_residual("z2-iso-coproduct", bad, wit))

    bad = 0
    for i in range(2):
        if H.counit[i] != K.elem_counit(images[i]):
            bad += 1
    checks.append(CheckOutcome.from_residual("z2-iso-counit", bad, None))

    bad = 0
    for i in range(2):
        lhs = {}
        for t, c in H.apply_antipode({i: Fraction(1)}).items():
            for k, v in images[t].items():
                r = lhs.get(k, 0) + c * v
                if r:
                    lhs[k] = r
                else:
                    lhs.pop(k, None)
        if lhs != K.apply_antipode(images[i]):
            bad += 1
    checks.append(CheckOutcome.from_residual("z2-iso-antipode", bad, None))
    return checks


def dual_pairing_report(G):
    """<[g], d(h)> = [g=h] turns each structure map of k[G] into the
    corresponding one of k^G.  Exhaustive over basis pairs."""
    kg = group_algebra(G)
    kd = dual_group_hopf(G)
    n = G.order
    one = Fraction(1)

    def pair(u, f):
        # u sparse in k[G], f sparse in k^G
        acc = Fraction(0)
        for g, c in u.items():
            w = f.get(g)
            if w:
                acc = acc + c * w
        return acc

    checks = []
    bad, wit = 0, None
    for a in range(n):
        for b in range(n):
            for g in range(n):
                lhs = pair(kg.elem_mul({a: one}, {b: one}), {g: one})
                rhs = Fraction(0)
                for (x, y), c in kd.basis_coproduct(g).items():
                    rhs = rhs + c * pair({a: one}, {x: one}) * pair(
                        {b: one}, {y: one}
                    )
                if lhs != rhs:
                    bad += 1
                    wit = wit or "(%d,%d|%d)" % (a, b, g)
    checks.append(CheckOutcome.from_residual("pairing-mult-coproduct", bad, wit))

    bad, wit = 0, None
    for a in range(n):
        for g in range(n):
            for h in range(n):
                lhs = pair({a: one}, kd.elem_mul({g: one}, {h: one}))
                rhs = Fraction(0)
                for (x, y), c in kg.basis_coproduct(a).items():
                    rhs = rhs + c * pair({x: one}, {g: one}) * pair(
                        {y: one}, {h: one}
                    )
                if lhs != rhs:
                    bad += 1
                    wit = wit or "(%d|%d,%d)" % (a, g, h)
    checks.append(CheckOutcome.from_residual("pairing-coproduct-mult", bad, wit))

    bad, wit = 0, None
    for g in range(n):
        if pair(kg.elem_unit(), {g: one}) != kd.counit[g]:
            bad += 1
            wit = wit or "(1|%d)" % g
    for a in range(n):
        if kg.counit[a] != pair({a: one}, kd.elem_unit()):
            bad += 1
            wit = wit or "(%d|1)" % a
    checks.append(CheckOutcome.from_residual("pairing-unit-counit", bad, wit))

    bad, wit = 0, None
    for a in range(n):
        for g in range(n):
            lhs = pair(kg.apply_antipode({a: one}), {g: one})
            rhs = pair({a: one}, kd.apply_antipode({g: one}))
            if lhs != rhs:
                bad += 1
                wit = wit or "(%d,%d)" % (a, g)
    checks.append(CheckOutcome.from_residual("pairing-antipode", bad, wit))
    return checks


# ---------------------------------------------------------------------------
# Taft algebras


def taft(p, lam=None):
    """Taft algebra of dimension p^2: g^p = 1, x^p = 0, x g = lam g x.

    lam must be a primitive p-th root of unity; defaults to e^(2*pi*i/p).
    p = 2 gives the 4-dimensional algebra with lam = -1.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if lam is None:
        lam = root_of_unity(1, p)
    if not isinstance(lam, Cyclotomic):
        lam = Cyclotomic.from_rational(lam)
    if lam ** p != 1 or any(lam ** k == 1 for k in range(1, p)):
        raise NotPrimitiveRoot("lam is not a primitive %d-th root of unity" % p)

    dim = p * p

    def idx(a, b):
        return a * p + b

    lam_pow = [lam ** k for k in range(p)]
    mult = {}
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if b + d < p:
                        mult[(idx(a, b), idx(c, d))] = {
                            idx((a + c) % p, b + d): lam_pow[(-b * c) % p]
                        }
                    else:
                        mult[(idx(a, b), idx(c, d))] = {}

    def mul1(u, v):
        out = {}
        for iu, cu in u.items():
            for iv, cv in v.items():
                cell = mult.get((iu, iv))
                if not cell:
                    continue
                ((k, w),) = tuple(cell.items())
                r = out.get(k, 0) + cu * cv * w
                if r:
                    out[k] = r
                else:
                    out.pop(k, None)
        return out

    def mul2(u, v):
        out = {}
        for (i1, i2), cu in u.items():
            for (j1, j2), cv in v.items():
                c1 = mult.get((i1, j1))
                c2 = mult.get((i2, j2))
                if not c1 or not c2:
                    continue
                ((k1, w1),) = tuple(c1.items())
                ((k2, w2),) = tuple(c2.items())
                r = out.get((k1, k2), 0) + cu * cv * w1 * w2
                if r:
                    out[(k1, k2)] = r
                else:
                    out.pop((k1, k2), None)
        return out

    one2 = {(idx(0, 0), idx(0, 0)): Fraction(1)}
    dg = {(idx(1, 0), idx(1, 0)): Fraction(1)}
    dx = {(idx(0, 1), idx(1, 0)): Fraction(1), (idx(0, 0), idx(0, 1)): Fraction(1)}
    coproduct = {}
    for a in range(p):
        for b in range(p):
            t = one2
            for _ in range(a):
                t = mul2(t, dg)
            for _ in range(b):
                t = mul2(t, dx)
            coproduct[idx(a, b)] = t

    counit = [Fraction(1) if b == 0 else Fraction(0) for a in range(p) for b in range(p)]

    sg = {idx((p - 1) % p, 0): Fraction(1)}
    sx = mul1({idx(0, 1): Fraction(-1)}, sg)  # -x g^-1
    antipode_rows = []
    for a in range(p):
        for b in range(p):
            img = {idx(0, 0): Fraction(1)}
            for _ in range(b):
                img = mul1(img, sx)
            for _ in range(a):
                img = mul1(img, sg)
            antipode_rows.append(img)
    antipode = [
        [row.get(j, Fraction(0)) for j in range(dim)] for row in antipode_rows
    ]

    labels = []
    for a in range(p):
        for b in range(p):
            parts = []
            if a:
                parts.append("g" if a == 1 else "g^%d" % a)
            if b:
                parts.append("x" if b == 1 else "x^%d" % b)
            labels.append("*".join(parts) if parts else "1")

    return HopfPresentation(
        dim,
        labels,
        ScalarRing(),
        mult,
        [Fraction(1) if t == 0 else Fraction(0) for t in range(dim)],
        coproduct,
        counit,
        antipode,
        commutative=False,
        cocommutative=False,
        name="taft-%d" % p,
    )


# ---------------------------------------------------------------------------
# shuffle bialgebra (windowed in word length)


class ShuffleBialgebra:
    """Words of length <= max_len over an alphabet, with the riffle-shuffle
    product and the deconcatenation coproduct.

    Products past the length window raise LengthOverflow; deconcatenation and
    the antipode never leave the window.
    """

    def __init__(self, dim_v, max_len):
        if dim_v < 1:
            raise ValueError("alphabet must be nonempty")
        self.dim_v = dim_v
        self.max_len = max_len
        words = [()]
        frontier = [()]
        for _ in range(max_len):
            frontier = [w + (a,) for w in frontier for a in range(dim_v)]
            words.extend(frontier)
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        self.dim = len(words)
        self.labels = [
            "1" if not w else "".join(str(a + 1) for a in w) for w in words
        ]
        self.ring = ScalarRing()

    def shuffle_words(self, u, v):
        """Sparse dict of the shuffle product of two words."""
        if len(u) + len(v) > self.max_len:
            raise LengthOverflow(
                "|u|+|v| = %d beyond window %d" % (len(u) + len(v), self.max_len)
            )
        out = {}

        def rec(a, b, acc):
            if not a and not b:
                key = self.index[acc]
                out[key] = out.get(key, 0) + 1
                return
            if a:
                rec(a[1:], b, acc + (a[0],))
            if b:
                rec(a, b[1:], acc + (b[0],))

        rec(u, v, ())
        return {k: Fraction(v) for k, v in out.items()}

    def basis_mul(self, i, j):
        return self.shuffle_words(self.words[i], self.words[j])

    def elem_mul(self, uvec, vvec):
        out = {}
        for i, cu in uvec.items():
            for j, cv in vvec.items():
                for k, w in self.basis_mul(i, j).items():
                    r = out.get(k, 0) + cu * cv * w
                    if r:
                        out[k] = r
                    else:
                        out.pop(k, None)
        return out

    def basis_coproduct(self, i):
        w = self.words[i]
        out = {}
        for cut in range(len(w) + 1):
            key = (self.index[w[:cut]], self.index[w[cut:]])
            out[key] = out.get(key, 0) + Fraction(1)
        return out

    def counit(self, i):
        return Fraction(1 if not self.words[i] else 0)

    def antipode_index(self, i):
        """Image of basis word i: sign and target index."""
        w = self.words[i]
        return (Fraction(-1) ** len(w), self.index[w[::-1]])

    def apply_antipode(self, vec):
        out = {}
        for i, c in vec.items():
            s, j = self.antipode_index(i)
            r = out.get(j, 0) + c * s
            if r:
                out[j] = r
            else:
                out.pop(j, None)
        return out


def shuffle_bialgebra(dim_v, max_len):
    return ShuffleBialgebra(dim_v, max_len)


def shuffle_axiom_report(S):
    """Hopf axioms for the shuffle bialgebra, windowed where products occur."""
    checks = []
    pairs = [
        (i, j)
        for i in range(S.dim)
        for j in range(S.dim)
        if len(S.words[i]) + len(S.words[j]) <= S.max_len
    ]

    bad, wit = 0, None
    for i in range(S.dim):
        lhs = S.shuffle_words((), S.words[i])
        rhs = S.shuffle_words(S.words[i], ())
        if lhs != {i: 1} or rhs != {i: 1}:
            bad += 1
            wit = wit or S.labels[i]
    checks.append(CheckOutcome.from_residual("unit-laws", bad, wit))

    bad, wit = 0, None
    for i, j in pairs:
        if S.basis_mul(i, j) != S.basis_mul(j, i):
            bad += 1
            wit = wit or "(%s,%s)" % (S.labels[i], S.labels[j])
    checks.append(CheckOutcome.from_residual("commutativity", bad, wit))

    bad, wit = 0, None
    for i in range(S.dim):
        for j in range(S.dim):
            for k in range(S.dim):
                if (
                    len(S.words[i]) + len(S.words[j]) + len(S.words[k])
                    > S.max_len
                ):
                    continue
                lhs = S.elem_mul(S.basis_mul(i, j), {k: Fraction(1)})
                rhs = S.elem_mul({i: Fraction(1)}, S.basis_mul(j, k))
                if lhs != rhs:
                    bad += 1
                    if wit is None:
                        wit = "(%s,%s,%s)" % (
                            S.labels[i], S.labels[j], S.labels[k],
                        )
    checks.append(CheckOutcome.from_residual("associativity", bad, wit))

    bad, wit = 0, None
    for i in range(S.dim):
        d = S.basis_coproduct(i)
        lhs = {}
        rhs = {}
        for (a, b), c in d.items():
            for (x, y), cc in S.basis_coproduct(a).items():
                key = (x, y, b)
                lhs[key] = lhs.get(key, 0) + c * cc
            for (x, y), cc in S.basis_coproduct(b).items():
                key = (a, x, y)
                rhs[key] = rhs.get(key, 0) + c * cc
        if _clean(lhs) != _clean(rhs):
            bad += 1
            wit = wit or S.labels[i]
    checks.append(CheckOutcome.from_residual("coassociativity", bad, wit))

    bad, wit = 0, None
    for i in range(S.dim):
        left = {}
        right = {}
        for (a, b), c in S.basis_coproduct(i).items():
            if S.counit(a):
                left[b] = left.get(b, 0) + c * S.counit(a)
            if S.counit(b):
                right[a] = right.get(a, 0) + c * S.counit(b)
        if _clean(left) != {i: 1} or _clean(right) != {i: 1}:
            bad += 1
            wit = wit or S.labels[i]
    checks.append(CheckOutcome.from_residual("counit-laws", bad, wit))

    bad, wit = 0, None
    for i, j in pairs:
        prod = S.basis_mul(i, j)
        dprod = {}
        for t, c in prod.items():
            for key, cc in S.basis_coproduct(t).items():
                dprod[key] = dprod.get(key, 0) + c * cc
        lhs = {}
        for (a1, a2), c1 in S.basis_coproduct(i).items():
            for (b1, b2), c2 in S.basis_coproduct(j).items():
                left = S.basis_mul(a1, b1)
                right = S.basis_mul(a2, b2)
                for x, cx in left.items():
                    for y, cy in right.items():
                        key = (x, y)
                        lhs[key] = lhs.get(key, 0) + c1 * c2 * cx * cy
        if _clean(lhs) != _clean(dprod):
            bad += 1
            wit = wit or "(%s,%s)" % (S.labels[i], S.labels[j])
    checks.append(CheckOutcome.from_residual("coproduct-morphism", bad, wit))

    bad, wit = 0, None
    for i in range(S.dim):
        acc_l = {}
        acc_r = {}
        for (a, b), c in S.basis_coproduct(i).items():
            sa, ja = S.antipode_index(a)
            for k, w in S.basis_mul(ja, b).items():
                r = acc_l.get(k, 0) + c * sa * w
                if r:
                    acc_l[k] = r
                else:
                    acc_l.pop(k, None)
            sb, jb = S.antipode_index(b)
            for k, w in S.basis_mul(a, jb).items():
                r = acc_r.get(k, 0) + c * sb * w
                if r:
                    acc_r[k] = r
                else:
                    acc_r.pop(k, None)
        want = {S.index[()]: S.counit(i)} if S.counit(i) else {}
        if acc_l != want or acc_r != want:
            bad += 1
            wit = wit or S.labels[i]
    checks.append(CheckOutcome.from_residual("antipode-convolution", bad, wit))

    bad, wit = 0, None
    for i, j in pairs:
        lhs = S.apply_antipode(S.basis_mul(i, j))
        si, ii = S.antipode_index(i)
        sj, jj = S.antipode_index(j)
        rhs = {k: si * sj * w for k, w in S.basis_mul(jj, ii).items()}
        if lhs != _clean(rhs):
            bad += 1
            wit = wit or "(%s,%s)" % (S.labels[i], S.labels[j])
    checks.append(
        CheckOutcome.from_residual("antipode-antihomomorphism", bad, wit)
    )

    bad, wit = 0, None
    for i in range(S.dim):
        s, j = S.antipode_index(i)
        s2, k = S.antipode_index(j)
        if k != i or s * s2 != 1:
            bad += 1
            wit = wit or S.labels[i]
    checks.append(CheckOutcome.from_residual("antipode-square", bad, wit))
    return checks


def word_pin_report(S):
    """Two small shuffle values pinned by hand: single letters x, y give
    xy + yx; a letter against a 2-word gives the three interleavings."""
    checks = []
    if S.dim_v >= 2 and S.max_len >= 2:
        x, y = (0,), (1,)
        got = S.shuffle_words(x, y)
        want = {S.index[(0, 1)]: 1, S.index[(1, 0)]: 1}
        checks.append(
            CheckOutcome.from_residual(
                "pin-two-letters", 0 if got == want else 1
            )
        )
    if S.dim_v >= 2 and S.max_len >= 3:
        got = S.shuffle_words((0,), (1, 1))
        want = {S.index[(0, 1, 1)]: 1, S.index[(1, 0, 1)]: 1, S.index[(1, 1, 0)]: 1}
        checks.append(
            CheckOutcome.from_residual(
                "pin-letter-vs-pair", 0 if got == want else 1
            )
        )
    return checks


# ---------------------------------------------------------------------------
# anti-commutative Laurent window host


class PareigisWindow:
    """Window host with basis g^n and g^n x for |n| <= N.

    Relations: x g = -g x, x^2 = 0.  The coproduct sends g^n x to
    g^n x (x) g^(n+1) + g^n (x) g^n x, so it overflows at n = N.
    """

    def __init__(self, N):
        self.N = N
        self.dim = 2 * (2 * N + 1)
        self.labels = []
        for n in range(-N, N + 1):
            base = "1" if n == 0 else ("g" if n == 1 else "g^%d" % n)
            self.labels.append(base)
            self.labels.append(("x" if n == 0 else base + "*x"))
        self.ring = ScalarRing()

    def idx(self, n, b):
        if abs(n) > self.N:
            raise WindowOverflow("g^%d outside window %d" % (n, self.N))
        return (n + self.N) * 2 + b

    def unidx(self, i):
        n, b = divmod(i, 2)
        return n - self.N, b

    def basis_mul(self, i, j):
        (m, a) = self.unidx(i)
        (n, b) = self.unidx(j)
        if a + b >= 2:
            return {}
        if abs(m + n) > self.N:
            raise WindowOverflow(
                "product g^%d escapes window %d" % (m + n, self.N)
            )
        sign = Fraction(-1) ** (a * n)
        return {self.idx(m + n, a + b): sign}

    def elem_mul(self, u, v):
        out = {}
        for i, cu in u.items():
            for j, cv in v.items():
                for k, w in self.basis_mul(i, j).items():
                    r = out.get(k, 0) + cu * cv * w
                    if r:
                        out[k] = r
                    else:
                        out.pop(k, None)
        return out

    def basis_coproduct(self, i):
        n, b = self.unidx(i)
        if b == 0:
            return {(i, i): Fraction(1)}
        return {
            (i, self.idx(n + 1, 0)): Fraction(1),
            (self.idx(n, 0), i): Fraction(1),
        }

    def counit(self, i):
        _, b = self.unidx(i)
        return Fraction(0 if b else 1)

    def basis_antipode(self, i):
        n, b = self.unidx(i)
        if b == 0:
            return {self.idx(-n, 0): Fraction(1)}
        return {self.idx(-n - 1, 1): Fraction(-1) ** n}


def pareigis_window(N):
    return PareigisWindow(N)


def pareigis_axiom_report(P):
    """Axioms on every instance whose coproducts and products stay inside
    the window; overflowing instances are skipped, not failed."""
    checks = []
    N = P.N

    bad, wit = 0, None
    unit = {P.idx(0, 0): Fraction(1)}
    for i in range(P.dim):
        x = {i: Fraction(1)}
        if P.elem_mul(unit, x) != x or P.elem_mul(x, unit) != x:
            bad += 1
            wit = wit or P.labels[i]
    checks.append(CheckOutcome.from_residual("unit-laws", bad, wit))

    bad, wit = 0, None
    for i in range(P.dim):
        for j in range(P.dim):
            for k in range(P.dim):
                try:
                    lhs = P.elem_mul(P.basis_mul(i, j), {k: Fraction(1)})
                    rhs = P.elem_mul({i: Fraction(1)}, P.basis_mul(j, k))
                except WindowOverflow:
                    continue
                if lhs != rhs:
                    bad += 1
                    if wit is None:
                        wit = "(%s,%s,%s)" % (
                            P.labels[i], P.labels[j], P.labels[k],
                        )
    checks.append(CheckOutcome.from_residual("associativity", bad, wit))

    bad, wit = 0, None
    for i in range(P.dim):
        try:
            d = P.basis_coproduct(i)
            lhs = {}
            rhs = {}
            for (a, b), c in d.items():
                for (x, y), cc in P.basis_coproduct(a).items():
                    key = (x, y, b)
                    lhs[key] = lhs.get(key, 0) + c * cc
                for (x, y), cc in P.basis_coproduct(b).items():
                    key = (a, x, y)
                    rhs[key] = rhs.get(key, 0) + c * cc
        except WindowOverflow:
            continue
        if _clean(lhs) != _clean(rhs):
            bad += 1
            wit = wit or P.labels[i]
    checks.append(CheckOutcome.from_residual("coassociativity", bad, wit))

    bad, wit = 0, None
    for i in range(P.dim):
        try:
            d = P.basis_coproduct(i)
        except WindowOverflow:
            continue
        left = {}
        right = {}
        for (a, b), c in d.items():
            ca = P.counit(a)
            cb = P.counit(b)
            if ca:
                left[b] = left.get(b, 0) + c * ca
            if cb:
                right[a] = right.get(a, 0) + c * cb
        if _clean(left) != {i: 1} or _clean(right) != {i: 1}:
            bad += 1
            wit = wit or P.labels[i]
    checks.append(CheckOutcome.from_residual("counit-laws", bad, wit))

    bad, wit = 0, None
    for i in range(P.dim):
        for j in range(P.dim):
            try:
                prod = P.basis_mul(i, j)
                dprod = {}
                for t, c in prod.items():
                    for key, cc in P.basis_coproduct(t).items():
                        dprod[key] = dprod.get(key, 0) + c * cc
                lhs = {}
                for (a1, a2), c1 in P.basis_coproduct(i).items():
                    for (b1, b2), c2 in P.basis_coproduct(j).items():
                        lcell = P.basis_mul(a1, b1)
                        rcell = P.basis_mul(a2, b2)
                        for xx, cx in lcell.items():
                            for yy, cy in rcell.items():
                                key = (xx, yy)
                                lhs[key] = lhs.get(key, 0) + c1 * c2 * cx * cy
            except WindowOverflow:
                continue
            if _clean(lhs) != _clean(dprod):
                bad += 1
                if wit is None:
                    wit = "(%s,%s)" % (P.labels[i], P.labels[j])
    checks.append(CheckOutcome.from_residual("coproduct-morphism", bad, wit))

    bad, wit = 0, None
    for i in range(P.dim):
        try:
            d = P.basis_coproduct(i)
            acc_l = {}
            acc_r = {}
            for (a, b), c in d.items():
                for t, s in P.basis_antipode(a).items():
                    for k, w in P.basis_mul(t, b).items():
                        r = acc_l.get(k, 0) + c * s * w
                        if r:
                            acc_l[k] = r
                        else:
                            acc_l.pop(k, None)
                for t, s in P.basis_antipode(b).items():
                    for k, w in P.basis_mul(a, t).items():
                        r = acc_r.get(k, 0) + c * s * w
                        if r:
                            acc_r[k] = r
                        else:
                            acc_r.pop(k, None)
        except WindowOverflow:
            continue
        want = {P.idx(0, 0): P.counit(i)} if P.counit(i) else {}
        if acc_l != want or acc_r != want:
            bad += 1
            wit = wit or P.labels[i]
    checks.append(CheckOutcome.from_residual("antipode-convolution", bad, wit))
    return checks


# ---------------------------------------------------------------------------
# chain complexes in a window <-> comodules over the window host


class ChainComplexWindow:
    """Chain complex supported on finitely many degrees.

    dims[n] is the dimension in degree n; d[n] is the dense matrix of the
    differential A_n -> A_(n-1), rows indexed by source basis vectors.
    """

    def __init__(self, dims, d, validate=True):
        self.dims = {int(n): int(k) for n, k in dims.items() if k}
        self.d = {}
        for n, mat in d.items():
            n = int(n)
            rows = [list(map(Fraction, row)) for row in mat]
            if any(any(v for v in row) for row in rows):
                self.d[n] = rows
        if validate:
            self.assert_complex()

    def degrees(self):
        return sorted(self.dims)

    def diff(self, n):
        src = self.dims.get(n, 0)
        tgt = self.dims.get(n - 1, 0)
        mat = self.d.get(n)
        if mat is None:
            return [[Fraction(0)] * tgt for _ in range(src)]
        return mat

    def assert_complex(self):
        for n in list(self.dims):
            if self.dims.get(n - 1) and self.dims.get(n):
                a = self.diff(n)
                b = self.diff(n - 1)
                if not self.dims.get(n - 2):
                    continue
                for i in range(self.dims[n]):
                    comp = [Fraction(0)] * self.dims[n - 2]
                    for j in range(self.dims[n - 1]):
                        if a[i][j]:
                            for k in range(self.dims[n - 2]):
                                comp[k] += a[i][j] * b[j][k]
                    if any(comp):
                        raise NotAComplex(
                            "d.d is nonzero on degree %d basis %d" % (n, i)
                        )


class WindowComodule:
    """Coaction data for a graded module over the window host.

    coaction[(n, i)] maps pairs ((n', i'), host_index) to scalars.
    """

    def __init__(self, host, dims, coaction):
        self.host = host
        self.dims = dict(dims)
        self.coaction = {
            k: _clean({kk: Fraction(v) for kk, v in cell.items()})
            for k, cell in coaction.items()
        }

    def report(self):
        """Coassociativity and counit axioms of the coaction, with witnesses."""
        P = self.host
        checks = []
        bad, wit = 0, None
        for (n, i), cell in self.coaction.items():
            lhs = {}
            rhs = {}
            overflow = False
            try:
                for ((n1, i1), h), c in cell.items():
                    inner = self.coaction.get((n1, i1), {})
                    for ((n2, i2), h2), c2 in inner.items():
                        key = ((n2, i2), h2, h)
                        lhs[key] = lhs.get(key, 0) + c * c2
                    for (h1, h2), cc in P.basis_coproduct(h).items():
                        key = ((n1, i1), h1, h2)
                        rhs[key] = rhs.get(key, 0) + c * cc
            except WindowOverflow:
                overflow = True
            if overflow:
                continue
            if _clean(lhs) != _clean(rhs):
                bad += 1
                if wit is None:
                    wit = "degree %d basis %d" % (n, i)
        checks.append(
            CheckOutcome.from_residual("coaction-coassociativity", bad, wit)
        )

        bad, wit = 0, None
        for (n, i), cell in self.coaction.items():
            got = {}
            for ((n1, i1), h), c in cell.items():
                e = P.counit(h)
                if e:
                    key = (n1, i1)
                    got[key] = got.get(key, 0) + c * e
            if _clean(got) != {(n, i): 1}:
                bad += 1
                if wit is None:
                    wit = "degree %d basis %d" % (n, i)
        checks.append(CheckOutcome.from_residual("coaction-counit", bad, wit))
        return checks


def chain_to_comodule(C, P):
    """delta(a) = a (x) g^n + (da) (x) g^(n-1) x for a in degree n."""
    coaction = {}
    for n in C.degrees():
        dn = C.diff(n)
        for i in range(C.dims[n]):
            cell = {((n, i), P.idx(n, 0)): Fraction(1)}
            if C.dims.get(n - 1):
                for j in range(C.dims[n - 1]):
                    if dn[i][j]:
                        cell[((n - 1, j), P.idx(n - 1, 1))] = dn[i][j]
            coaction[(n, i)] = cell
    return WindowComodule(P, C.dims, coaction)


def comodule_to_chain(M, validate=True):
    """Read the differential back off the g^(n-1) x components."""
    dims = dict(M.dims)
    d = {}
    for (n, i), cell in M.coaction.items():
        for ((n1, j), h), c in cell.items():
            hn, hb = M.host.unidx(h)
            if hb == 1:
                if n1 != n - 1 or hn != n - 1:
                    raise NotAComplex(
                        "coaction term at degree %d lands at (%d, g^%d x)"
                        % (n, n1, hn)
                    )
                mat = d.setdefault(
                    n,
                    [
                        [Fraction(0)] * dims.get(n - 1, 0)
                        for _ in range(dims[n])
                    ],
                )
                mat[i][j] += c
    return ChainComplexWindow(dims, d, validate=validate)

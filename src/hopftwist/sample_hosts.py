"""The sample hosts that the hopf-axioms suite checks beside the group
algebras and their duals: Taft algebras, the shuffle bialgebra, the
anti-commutative Laurent window host, the reports that pair k[G] with k^G,
and the chain-complex/comodule dictionary over the window host; and the
hopf-axioms suite body, hopf_axioms_checks.

Nothing on the cochain workloads' path builds one of these, so they are
kept out of constructors: a process that twists group algebras compiles
none of them, and only hopf_axioms_checks loads the Hopf battery.
"""

from fractions import Fraction

from .constructors import (
    cyclic_group,
    dihedral_4,
    dual_group_hopf,
    elementary_abelian_2,
    group_algebra,
    pauli_8,
    symmetric_3,
)
from .errors import NotAComplex, NotPrimitiveRoot, WindowOverflow
from .multilinear import AlgebraPresentation, HopfPresentation, LegTensor, _clean
from .reporting import CheckOutcome
from .scalars import Cyclotomic, ScalarRing, accumulate, root_of_unity

# ---------------------------------------------------------------------------
# k[G] against k^G


def z2_dual_iso_report():
    """The rank-2 dual pair: d(+-) -> (1 +- g)/2 is a Hopf isomorphism."""
    G = cyclic_group(2)
    H = dual_group_hopf(G)
    K = group_algebra(G)
    half = Fraction(1, 2)
    # images of the delta basis in k[Z2]
    images = [{0: half, 1: half}, {0: half, 1: -half}]

    def image(vec):
        out = {}
        for t, c in vec.items():
            for k, v in images[t].items():
                accumulate(out, k, c * v)
        return out

    def image2(cell):
        # a coproduct pushed through the isomorphism on both sides
        out = {}
        for (a, b), c in cell.items():
            for ka, va in images[a].items():
                for kb, vb in images[b].items():
                    accumulate(out, (ka, kb), c * va * vb)
        return out

    yield CheckOutcome.tally("z2-iso-mult", (
        (1, "(%d,%d)" % (i, j)) for i in range(2) for j in range(2)
        if image(H.basis_mul(i, j)) != K.elem_mul(images[i], images[j])
    ))
    yield CheckOutcome.tally("z2-iso-coproduct", (
        (1, str(i)) for i in range(2)
        if image2(H.basis_coproduct(i)) != K.elem_coproduct(images[i])
    ))
    yield CheckOutcome.tally("z2-iso-counit", (
        (1, str(i)) for i in range(2) if H.counit[i] != K.elem_counit(images[i])
    ))
    yield CheckOutcome.tally("z2-iso-antipode", (
        (1, str(i)) for i in range(2)
        if image(H.apply_antipode({i: Fraction(1)})) != K.apply_antipode(images[i])
    ))


def dual_pairing_report(G):
    """<[g], d(h)> = [g=h] turns each structure map of k[G] into the
    corresponding one of k^G.  Exhaustive over basis pairs."""
    kg = group_algebra(G)
    kd = dual_group_hopf(G)
    n = G.order
    one = Fraction(1)
    basis = [{i: one} for i in range(n)]

    def pair(u, f):
        # u sparse in k[G], f sparse in k^G
        acc = Fraction(0)
        for g, c in u.items():
            w = f.get(g)
            if w:
                acc = acc + c * w
        return acc

    # each structure map and each basis pairing is formed once per run; the
    # triples keep their order, so the first failing one is the witness
    rows = [[pair(basis[a], basis[g]) for g in range(n)] for a in range(n)]
    cols = [list(col) for col in zip(*rows)]

    def paired(cop, left, right):
        # sum of c <left, x> <right, y> over the terms c x (x) y of cop
        acc = Fraction(0)
        for (x, y), c in cop:
            if left[x] and right[y]:
                acc = acc + c * left[x] * right[y]
        return acc

    kd_cop = [kd.basis_coproduct(g).items() for g in range(n)]
    kd_mul = [[kd.elem_mul(basis[g], basis[h]) for h in range(n)] for g in range(n)]
    kg_s = [kg.apply_antipode(u) for u in basis]
    kd_s = [kd.apply_antipode(f) for f in basis]

    def mult_coproduct():
        for a in range(n):
            for b in range(n):
                ab = kg.elem_mul(basis[a], basis[b])
                for g in range(n):
                    if pair(ab, basis[g]) != paired(kd_cop[g], rows[a], rows[b]):
                        yield 1, "(%d,%d|%d)" % (a, b, g)

    def coproduct_mult():
        for a in range(n):
            kg_cop = kg.basis_coproduct(a).items()
            for g in range(n):
                for h in range(n):
                    if pair(basis[a], kd_mul[g][h]) != paired(kg_cop, cols[g], cols[h]):
                        yield 1, "(%d|%d,%d)" % (a, g, h)

    def unit_counit():
        for g in range(n):
            if pair(kg.elem_unit(), basis[g]) != kd.counit[g]:
                yield 1, "(1|%d)" % g
        for a in range(n):
            if kg.counit[a] != pair(basis[a], kd.elem_unit()):
                yield 1, "(%d|1)" % a

    yield CheckOutcome.tally("pairing-mult-coproduct", mult_coproduct())
    yield CheckOutcome.tally("pairing-coproduct-mult", coproduct_mult())
    yield CheckOutcome.tally("pairing-unit-counit", unit_counit())
    yield CheckOutcome.tally("pairing-antipode", (
        (1, "(%d,%d)" % (a, g)) for a in range(n) for g in range(n)
        if pair(kg_s[a], basis[g]) != pair(basis[a], kd_s[g])
    ))


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

    labels = []
    for a in range(p):
        for b in range(p):
            parts = []
            if a:
                parts.append("g" if a == 1 else "g^%d" % a)
            if b:
                parts.append("x" if b == 1 else "x^%d" % b)
            labels.append("*".join(parts) if parts else "1")
    unit = [Fraction(1) if t == 0 else Fraction(0) for t in range(dim)]
    alg = AlgebraPresentation(dim, labels, ScalarRing(), mult, unit)
    one2 = LegTensor.unit(alg, 2)
    dg = LegTensor(alg, 2, {(idx(1, 0), idx(1, 0)): 1})
    dx = LegTensor(alg, 2, {(idx(0, 1), idx(1, 0)): 1, (idx(0, 0), idx(0, 1)): 1})
    coproduct = {}
    for a in range(p):
        for b in range(p):
            t = one2
            for _ in range(a):
                t = t.mul(dg)
            for _ in range(b):
                t = t.mul(dx)
            coproduct[idx(a, b)] = dict(t.entries())

    counit = [Fraction(1) if b == 0 else Fraction(0) for a in range(p) for b in range(p)]

    sg = {idx((p - 1) % p, 0): Fraction(1)}
    sx = alg.elem_mul({idx(0, 1): Fraction(-1)}, sg)  # -x g^-1
    antipode_rows = []
    for a in range(p):
        for b in range(p):
            img = {idx(0, 0): Fraction(1)}
            for _ in range(b):
                img = alg.elem_mul(img, sx)
            for _ in range(a):
                img = alg.elem_mul(img, sg)
            antipode_rows.append(img)
    antipode = [
        [row.get(j, Fraction(0)) for j in range(dim)] for row in antipode_rows
    ]

    return HopfPresentation(
        dim,
        labels,
        ScalarRing(),
        mult,
        unit,
        coproduct,
        counit,
        antipode,
        name="taft-%d" % p,
    )


# ---------------------------------------------------------------------------
# shuffle bialgebra (windowed in word length)


class ShuffleBialgebra:
    """Words of length <= max_len over an alphabet, with the riffle-shuffle
    product and the deconcatenation coproduct.

    Products past the length window raise WindowOverflow; deconcatenation
    and the antipode never leave the window.
    """

    axiom_ids = (
        "unit-laws",
        "commutativity",
        "associativity",
        "coassociativity",
        "counit-laws",
        "coproduct-morphism",
        "antipode-convolution",
        "antipode-antihomomorphism",
        "antipode-square",
    )

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
        self.counit = [Fraction(0 if w else 1) for w in words]

    def elem_unit(self):
        return {self.index[()]: Fraction(1)}

    def shuffle_words(self, u, v):
        """Sparse dict of the shuffle product of two words."""
        if len(u) + len(v) > self.max_len:
            raise WindowOverflow(
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

    def basis_coproduct(self, i):
        w = self.words[i]
        out = {}
        for cut in range(len(w) + 1):
            key = (self.index[w[:cut]], self.index[w[cut:]])
            out[key] = out.get(key, 0) + Fraction(1)
        return out

    def antipode_index(self, i):
        """Image of basis word i: sign and target index."""
        w = self.words[i]
        return (Fraction(-1) ** len(w), self.index[w[::-1]])

    def apply_antipode(self, vec):
        out = {}
        for i, c in vec.items():
            s, j = self.antipode_index(i)
            accumulate(out, j, c * s)
        return out


def _pin(S, cid, got, want):
    """The outcome of a pinned shuffle value: the residual counts the words
    whose coefficients in got and want differ, and the witness is the label
    of the first of them in basis order."""
    bad = [k for k in sorted(set(got) | set(want)) if got.get(k, 0) != want.get(k, 0)]
    return CheckOutcome.from_residual(cid, len(bad), S.labels[bad[0]] if bad else None)


def word_pin_report(S):
    """Two small shuffle values pinned by hand: single letters x, y give
    xy + yx; a letter against a 2-word gives the three interleavings."""
    if S.dim_v >= 2 and S.max_len >= 2:
        want = {S.index[(0, 1)]: 1, S.index[(1, 0)]: 1}
        yield _pin(S, "pin-two-letters", S.shuffle_words((0,), (1,)), want)
    if S.dim_v >= 2 and S.max_len >= 3:
        want = {S.index[(0, 1, 1)]: 1, S.index[(1, 0, 1)]: 1, S.index[(1, 1, 0)]: 1}
        yield _pin(S, "pin-letter-vs-pair", S.shuffle_words((0,), (1, 1)), want)


# ---------------------------------------------------------------------------
# anti-commutative Laurent window host


class PareigisWindow:
    """Window host with basis g^n and g^n x for |n| <= N.

    Relations: x g = -g x, x^2 = 0.  The coproduct sends g^n x to
    g^n x (x) g^(n+1) + g^n (x) g^n x, so it overflows at n = N.
    """

    axiom_ids = (
        "unit-laws",
        "associativity",
        "coassociativity",
        "counit-laws",
        "coproduct-morphism",
        "antipode-convolution",
    )

    def __init__(self, N):
        self.N = N
        self.dim = 2 * (2 * N + 1)
        self.labels = []
        for n in range(-N, N + 1):
            base = "1" if n == 0 else ("g" if n == 1 else "g^%d" % n)
            self.labels.append(base)
            self.labels.append(("x" if n == 0 else base + "*x"))
        self.ring = ScalarRing()
        self.counit = [Fraction(1 - i % 2) for i in range(self.dim)]

    def idx(self, n, b):
        if abs(n) > self.N:
            raise WindowOverflow("g^%d outside window %d" % (n, self.N))
        return (n + self.N) * 2 + b

    def unidx(self, i):
        n, b = divmod(i, 2)
        return n - self.N, b

    def elem_unit(self):
        return {self.idx(0, 0): Fraction(1)}

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

    def basis_coproduct(self, i):
        n, b = self.unidx(i)
        if b == 0:
            return {(i, i): Fraction(1)}
        return {
            (i, self.idx(n + 1, 0)): Fraction(1),
            (self.idx(n, 0), i): Fraction(1),
        }

    def apply_antipode(self, vec):
        """S(g^n) = g^-n and S(g^n x) = (-1)^n g^(-n-1) x, which leaves the
        window at n = N."""
        out = {}
        for i, c in vec.items():
            n, b = self.unidx(i)
            if b:
                out[self.idx(-n - 1, 1)] = -c if n % 2 else c
            else:
                out[self.idx(-n, 0)] = c
        return out


# ---------------------------------------------------------------------------
# chain complexes in a window <-> comodules over the window host


class ChainComplexWindow:
    """Chain complex supported on finitely many degrees.

    dims[n] is the dimension in degree n; d[n] is the dense matrix of the
    differential A_n -> A_(n-1), rows indexed by source basis vectors.
    """

    def __init__(self, dims, d):
        self.dims = {int(n): int(k) for n, k in dims.items() if k}
        self.d = {}
        for n, mat in d.items():
            n = int(n)
            rows = [list(map(Fraction, row)) for row in mat]
            if any(any(v for v in row) for row in rows):
                self.d[n] = rows
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

        def coassociativity():
            for (n, i), cell in self.coaction.items():
                lhs = {}
                rhs = {}
                try:
                    for ((n1, i1), h), c in cell.items():
                        inner = self.coaction.get((n1, i1), {})
                        for ((n2, i2), h2), c2 in inner.items():
                            accumulate(lhs, ((n2, i2), h2, h), c * c2)
                        for (h1, h2), cc in P.basis_coproduct(h).items():
                            accumulate(rhs, ((n1, i1), h1, h2), c * cc)
                except WindowOverflow:
                    continue
                if lhs != rhs:
                    yield 1, "degree %d basis %d" % (n, i)

        def counit():
            for (n, i), cell in self.coaction.items():
                got = {}
                for ((n1, i1), h), c in cell.items():
                    e = P.counit[h]
                    if e:
                        accumulate(got, (n1, i1), c * e)
                if got != {(n, i): 1}:
                    yield 1, "degree %d basis %d" % (n, i)

        return [
            CheckOutcome.tally("coaction-coassociativity", coassociativity()),
            CheckOutcome.tally("coaction-counit", counit()),
        ]


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


def comodule_to_chain(M):
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
    return ChainComplexWindow(dims, d)


# ---------------------------------------------------------------------------
# the hopf-axioms suite


def _prefix(label, checks):
    return (c.renamed("%s:%s" % (label, c.id)) for c in checks)


def hopf_axioms_checks(rng, order, theta):
    from .batteries import verify_hopf

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
    B = ShuffleBialgebra(2, 4)
    yield from _prefix("shuffle", verify_hopf(B))
    yield from _prefix("shuffle", word_pin_report(B))
    yield from _prefix("pareigis4", verify_hopf(PareigisWindow(4)))
    for name, G in groups:
        yield from _prefix("pairing[%s]" % name, dual_pairing_report(G))
    yield from _prefix("z2-dual-iso", z2_dual_iso_report())

"""Group-graded and integer-window-graded algebras.

Carries the strong-grading decision procedure (exact linear solves for
resolutions of unity), the balanced-tensor canonical map into A (x) kG,
crossed products by automorphism actions and two-sided Morita-style basis
checks for each degree component.  The weight-vector combinatorics of the
lens-space style examples (the sharp map) are in weights.

Integer gradings are windowed: degrees live in [-radius, radius] and a
product escaping the window must vanish.  Checks for window gradings
reduce to degrees +1 and -1.

The graded-galois suite body, graded_galois_checks, is here too.
"""

from fractions import Fraction

from .constructors import cyclic_group, group_algebra, symmetric_3
from .errors import NotAction, NotAutomorphism, NotHomogeneous
from .multilinear import AlgebraPresentation
from .reporting import CheckOutcome
from .scalars import ScalarRing, accumulate, field_rank, field_solve


class ZWindow:
    """Additive integer degrees clipped to |d| <= radius."""

    __slots__ = ("radius",)

    identity = 0

    def __init__(self, radius):
        if radius < 1:
            raise ValueError("window radius must be positive")
        self.radius = radius

    def mul(self, a, b):
        return a + b

    def inverse(self, a):
        return -a

    def contains(self, a):
        return abs(a) <= self.radius

    def __repr__(self):
        return "ZWindow(%d)" % self.radius


def _is_window(grading):
    return isinstance(grading, ZWindow)


class GradedAlgebra:
    """An algebra presentation together with a degree per basis index."""

    def __init__(self, algebra, grading, degree):
        self.algebra = algebra
        self.grading = grading
        self.degree = list(degree)
        if len(self.degree) != algebra.dim:
            raise ValueError("degree list length != algebra dimension")
        if _is_window(grading):
            for d in self.degree:
                if not grading.contains(d):
                    raise ValueError("degree %r outside window" % (d,))
        self.check_homogeneous()

    def component(self, g):
        return tuple(i for i, d in enumerate(self.degree) if d == g)

    def check_homogeneous(self):
        A = self.algebra
        e = self.grading.identity
        for k, v in enumerate(A.unit):
            if v and self.degree[k] != e:
                raise NotHomogeneous(
                    "unit has a component in degree %r" % (self.degree[k],)
                )
        for (i, j), cell in A.mult.items():
            target = self.grading.mul(self.degree[i], self.degree[j])
            escaped = _is_window(self.grading) and not self.grading.contains(
                target
            )
            for k in cell:
                if escaped or self.degree[k] != target:
                    raise NotHomogeneous(
                        "product %s*%s leaks outside degree %r"
                        % (A.labels[i], A.labels[j], target)
                    )

    def __repr__(self):
        return "GradedAlgebra(dim=%d, grading=%r)" % (
            self.algebra.dim,
            self.grading,
        )


class UnityResolution:
    """Pairs (xi_i, eta_i) with xi_i in A_{g^-1}, eta_i in A_g and
    sum xi_i eta_i = 1."""

    __slots__ = ("degree", "pairs")

    def __init__(self, degree, pairs, algebra=None):
        self.degree = degree
        self.pairs = [
            ({k: v for k, v in xi.items() if v}, {k: v for k, v in eta.items() if v})
            for xi, eta in pairs
        ]
        if algebra is not None:
            acc = {}
            for xi, eta in self.pairs:
                for k, v in algebra.elem_mul(xi, eta).items():
                    accumulate(acc, k, v)
            if acc != algebra.elem_unit():
                raise ValueError("pairs do not resolve the unit")

    def __len__(self):
        return len(self.pairs)


def _coords(vec, index, size):
    """The coordinates of a sparse vector {basis k: c} on a component: a
    list of size Fractions, c at position index[k] (index a dict, or a
    range for an arithmetic progression of positions)."""
    out = [Fraction(0)] * size
    for k, c in vec.items():
        out[index[k]] += c
    return out


def _balanced_relations(A, left, base, right, pidx):
    """The nonzero relations x b (x) y - x (x) b y of the product balanced
    over base, for x in left, b in base and y in right, as coordinates on
    the pairs pidx {(x, y): position}."""
    out = []
    for x in left:
        for b in base:
            for y in right:
                vec = [Fraction(0)] * len(pidx)
                for k, c in A.basis_mul(x, b).items():
                    vec[pidx[k, y]] += c
                for k, c in A.basis_mul(b, y).items():
                    vec[pidx[x, k]] -= c
                if any(vec):
                    out.append(vec)
    return out


def resolution_of_unity(graded, g):
    """Solve 1 = sum c_ij (x_i y_j), x_i in A_{g^-1}, y_j in A_g; None if
    the system is inconsistent."""
    A = graded.algebra
    ginv = graded.grading.inverse(g)
    if _is_window(graded.grading) and not graded.grading.contains(ginv):
        return None
    rows_i = graded.component(ginv)
    cols_j = graded.component(g)
    pairs = [(i, j) for i in rows_i for j in cols_j]
    if not pairs:
        return None
    cols = [_coords(A.basis_mul(i, j), range(A.dim), A.dim) for i, j in pairs]
    mat = [list(row) for row in zip(*cols)]
    rhs = [Fraction(v) for v in A.unit]
    x = field_solve(mat, rhs)
    if x is None:
        return None
    chosen = [
        ({i: c}, {j: A.ring.one()}) for (i, j), c in zip(pairs, x) if c
    ]
    return UnityResolution(g, chosen, A)


class StrongGradingResult:
    __slots__ = ("strong", "resolutions", "failing")

    def __init__(self, strong, resolutions, failing):
        self.strong = strong
        self.resolutions = resolutions
        self.failing = failing

    def __repr__(self):
        return "StrongGradingResult(strong=%r, failing=%r)" % (
            self.strong,
            self.failing,
        )


def strong_grading(graded):
    """Decide strong grading: a resolution of unity in every degree.

    Window gradings only need degrees +1 and -1; products of the
    corresponding components then generate every in-window degree.
    """
    if _is_window(graded.grading):
        degrees = (1, -1)
    else:
        degrees = tuple(graded.grading.elements())
    resolutions = {}
    for g in degrees:
        res = resolution_of_unity(graded, g)
        if res is None:
            return StrongGradingResult(False, resolutions, g)
        resolutions[g] = res
    return StrongGradingResult(True, resolutions, None)


class CanonicalMapResult:
    __slots__ = ("dim_source", "dim_target", "rank", "bijective")

    def __init__(self, dim_source, dim_target, rank, bijective):
        self.dim_source = dim_source
        self.dim_target = dim_target
        self.rank = rank
        self.bijective = bijective

    def __repr__(self):
        return "CanonicalMapResult(%d -> %d, rank %d, bijective=%r)" % (
            self.dim_source,
            self.dim_target,
            self.rank,
            self.bijective,
        )


def canonical_map(graded):
    """A (x)_B A -> A (x) kG, a (x) b |-> sum a b_g (x) g, with B = A_e.

    Builds the balanced quotient by exact row reduction, computes the
    rank of the induced map, and cross-checks bijectivity against the
    strong-grading decision.
    """
    grading = graded.grading
    if _is_window(grading):
        raise ValueError("canonical map needs a finite grading group")
    A = graded.algebra
    n = A.dim
    order = grading.order
    e = grading.identity
    B = graded.component(e)

    pidx = {(x, y): x * n + y for x in range(n) for y in range(n)}
    relations = _balanced_relations(A, range(n), B, range(n), pidx)
    rk_rel = field_rank(relations)
    dim_source = n * n - rk_rel

    # psi(b_i (x) b_j) = b_i b_j (x) deg(j), at k * order + deg(j) for b_k
    psi = [
        _coords(A.basis_mul(i, j), range(graded.degree[j], n * order, order), n * order)
        for i in range(n)
        for j in range(n)
    ]
    # the map must kill every balancing relation
    for vec in relations:
        img = [Fraction(0)] * (n * order)
        for flat, c in enumerate(vec):
            if c:
                row = psi[flat]
                for t, w in enumerate(row):
                    if w:
                        img[t] += c * w
        if any(img):
            raise RuntimeError("canonical map is not balanced")
    rk = field_rank(psi)
    bijective = dim_source == n * order == rk
    if bijective != strong_grading(graded).strong:
        raise RuntimeError(
            "canonical-map verdict disagrees with the strong-grading decision"
        )
    return CanonicalMapResult(dim_source, n * order, rk, bijective)


def _apply_map(rows, vec):
    out = {}
    for i, c in vec.items():
        for k, w in rows[i].items():
            accumulate(out, k, c * w)
    return out


def crossed_product(B, G, alpha):
    """B (x) kG with product (a,g)(b,h) = (a alpha_g(b), gh).

    alpha maps each group element to a list of sparse basis images.
    Every alpha_g must be a unital algebra automorphism and alpha a
    homomorphism from G to the automorphisms.
    """
    dB = B.dim
    maps = {}
    for g in range(G.order):
        try:
            rows = alpha[g]
        except (KeyError, IndexError):
            raise NotAction("no automorphism supplied for %s" % G.labels[g])
        rows = [dict(r) for r in rows]
        if len(rows) != dB:
            raise NotAutomorphism("wrong number of basis images")
        maps[g] = rows

    one = B.ring.one()
    for g, rows in maps.items():
        dense = [[rows[i].get(k, 0) for k in range(dB)] for i in range(dB)]
        if field_rank(dense) != dB:
            raise NotAutomorphism("alpha_%s is singular" % G.labels[g])
        img_unit = _apply_map(rows, B.elem_unit())
        if img_unit != B.elem_unit():
            raise NotAutomorphism("alpha_%s does not fix the unit" % G.labels[g])
        for i in range(dB):
            for j in range(dB):
                lhs = _apply_map(rows, B.basis_mul(i, j))
                rhs = B.elem_mul(rows[i], rows[j])
                if lhs != rhs:
                    raise NotAutomorphism(
                        "alpha_%s is not multiplicative on (%s,%s)"
                        % (G.labels[g], B.labels[i], B.labels[j])
                    )

    e = G.identity
    for i in range(dB):
        if maps[e][i] != {i: one}:
            raise NotAction("alpha at the identity is not the identity map")
    for g in range(G.order):
        for h in range(G.order):
            gh = G.mul(g, h)
            for i in range(dB):
                if _apply_map(maps[g], maps[h][i]) != maps[gh][i]:
                    raise NotAction(
                        "alpha_%s alpha_%s != alpha_%s on %s"
                        % (G.labels[g], G.labels[h], G.labels[gh], B.labels[i])
                    )

    dim = dB * G.order
    flat = lambda i, g: g * dB + i
    labels = [
        "%s|%s" % (B.labels[i], G.labels[g])
        for g in range(G.order)
        for i in range(dB)
    ]
    mult = {}
    for g in range(G.order):
        for i in range(dB):
            for h in range(G.order):
                gh = G.mul(g, h)
                for j in range(dB):
                    prod_b = B.elem_mul({i: one}, maps[g][j])
                    cell = {flat(k, gh): c for k, c in prod_b.items()}
                    if cell:
                        mult[(flat(i, g), flat(j, h))] = cell
    unit = [Fraction(0)] * dim
    for k, v in B.elem_unit().items():
        unit[flat(k, e)] = v
    A = AlgebraPresentation(dim, labels, B.ring, mult, unit)
    degree = [g for g in range(G.order) for _ in range(dB)]
    return GradedAlgebra(A, G, degree)


def smeb_check(graded, g):
    """Component A_g as a two-sided basis over A_e, in matrix form.

    Builds the balanced product A_{g^-1} (x)_{A_e} A_g, checks the
    multiplication into A_e is bijective, round-trips the stated inverse
    a |-> sum a xi (x) eta through the quotient, and verifies the two
    restricted associativity identities on basis triples.
    """
    A = graded.algebra
    ginv = graded.grading.inverse(g)
    I = graded.component(ginv)
    J = graded.component(g)
    E = graded.component(graded.grading.identity)
    eidx = {k: t for t, k in enumerate(E)}
    pairs = [(i, j) for i in I for j in J]
    pidx = {p: t for t, p in enumerate(pairs)}
    checks = []

    relations = _balanced_relations(A, I, E, J, pidx)
    rk_rel = field_rank(relations)
    qdim = len(pairs) - rk_rel

    mult_rows = [_coords(A.basis_mul(i, j), eidx, len(E)) for i, j in pairs]
    rk_mult = field_rank(mult_rows)
    bij = qdim == len(E) == rk_mult
    checks.append(
        CheckOutcome.from_residual(
            "smeb-mult-bijective",
            0 if bij else 1,
            None
            if bij
            else "dims: quotient %d, rank %d, base %d" % (qdim, rk_mult, len(E)),
        )
    )

    res = resolution_of_unity(graded, g)

    def roundtrip():
        if res is None:
            yield 1, "no unity resolution"
            return
        for i, j in pairs:
            # phi(x (x) y) = xy, then back through a |-> sum a xi (x) eta
            a = A.basis_mul(i, j)
            back = [Fraction(0)] * len(pairs)
            for xi, eta in res.pairs:
                left = A.elem_mul(a, xi)
                for k, c in left.items():
                    for t, w in eta.items():
                        back[pidx[(k, t)]] += c * w
            diff = list(back)
            diff[pidx[(i, j)]] -= Fraction(1)
            if any(diff) and field_rank(relations + [diff]) != rk_rel:
                yield 1, "(%s,%s)" % (A.labels[i], A.labels[j])

    checks.append(CheckOutcome.tally("smeb-inverse-roundtrip", roundtrip()))

    def compat():
        one = A.ring.one()
        for x in I:
            for y in J:
                xy = A.basis_mul(x, y)
                for z in I:
                    if A.elem_mul(xy, {z: one}) != A.elem_mul({x: one}, A.basis_mul(y, z)):
                        yield 1, "(%s,%s,%s)" % (A.labels[x], A.labels[y], A.labels[z])
        for y in J:
            for x in I:
                yx = A.basis_mul(y, x)
                for y2 in J:
                    if A.elem_mul(yx, {y2: one}) != A.elem_mul({y: one}, A.basis_mul(x, y2)):
                        yield 1, "(%s,%s,%s)" % (A.labels[y], A.labels[x], A.labels[y2])

    checks.append(CheckOutcome.tally("smeb-compat", compat()))
    return checks


def ideal_property_report(graded):
    """span(A_g A_{g^-1}) must be a two-sided ideal of A_e, per degree."""
    A = graded.algebra
    E = graded.component(graded.grading.identity)
    eidx = {k: t for t, k in enumerate(E)}
    if _is_window(graded.grading):
        degrees = (1, -1)
    else:
        degrees = tuple(graded.grading.elements())
    one = A.ring.one()

    def failures():
        for g in degrees:
            ginv = graded.grading.inverse(g)
            span = []
            for i in graded.component(g):
                for j in graded.component(ginv):
                    vec = _coords(A.basis_mul(i, j), eidx, len(E))
                    if any(vec):
                        span.append(vec)
            base_rank = field_rank(span)
            for b in E:
                for vec in list(span):
                    elem = {E[t]: c for t, c in enumerate(vec) if c}
                    for prod_ in (
                        A.elem_mul({b: one}, elem),
                        A.elem_mul(elem, {b: one}),
                    ):
                        new = _coords(prod_, eidx, len(E))
                        if any(new) and field_rank(span + [new]) != base_rank:
                            yield 1, "degree %r via %s" % (g, A.labels[b])

    return CheckOutcome.tally("component-products-ideal", failures())


def window_products_report(graded):
    """On strongly graded windows, A_h A_k spans A_{h+k} whenever h, k and
    h+k all sit inside the window."""
    if not _is_window(graded.grading):
        raise ValueError("window gradings only")
    A = graded.algebra
    r = graded.grading.radius

    def failures():
        for h in range(-r, r + 1):
            for k in range(-r, r + 1):
                if abs(h + k) > r:
                    continue
                target = graded.component(h + k)
                tidx = {t: s for s, t in enumerate(target)}
                span = []
                for i in graded.component(h):
                    for j in graded.component(k):
                        vec = _coords(A.basis_mul(i, j), tidx, len(target))
                        if any(vec):
                            span.append(vec)
                if field_rank(span) != len(target):
                    yield 1, "degrees (%d,%d)" % (h, k)

    return CheckOutcome.tally("window-component-products", failures())


# ---------------------------------------------------------------------------
# shipped battery


def matrix_algebra_2x2(ring=None):
    ring = ring or ScalarRing()
    labels = ["E00", "E01", "E10", "E11"]
    mult = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if b == c:
                        mult[(a * 2 + b, c * 2 + d)] = {a * 2 + d: 1}
    unit = [1, 0, 0, 1]
    return AlgebraPresentation(4, labels, ring, mult, unit)


def matrix_checkerboard_graded():
    """2x2 matrices split into diagonal and antidiagonal halves."""
    A = matrix_algebra_2x2()
    return GradedAlgebra(A, cyclic_group(2), [0, 1, 1, 0])


def group_graded(G, ring=None):
    """A group algebra graded by its own group."""
    return GradedAlgebra(group_algebra(G, ring), G, list(range(G.order)))


def truncated_poly_graded(p):
    """k[x]/(x^p) with degree of x equal to 1 mod p; never strong for p > 1."""
    ring = ScalarRing()
    labels = ["x^%d" % i if i else "1" for i in range(p)]
    mult = {
        (i, j): {i + j: 1} for i in range(p) for j in range(p) if i + j < p
    }
    unit = [1] + [0] * (p - 1)
    A = AlgebraPresentation(p, labels, ring, mult, unit)
    return GradedAlgebra(A, cyclic_group(p), [i % p for i in range(p)])


def s3_parity_graded():
    """kS3 graded by permutation parity."""
    G = symmetric_3()
    degree = []
    for g in range(G.order):
        n, x = 1, g
        while x != G.identity:
            x = G.mul(x, g)
            n += 1
        degree.append(0 if n in (1, 3) else 1)
    return GradedAlgebra(group_algebra(G), cyclic_group(2), degree)


def two_point_swap_crossed():
    """(k x k) crossed with the order-2 swap of the two factors."""
    ring = ScalarRing()
    B = AlgebraPresentation(
        2, ["p", "q"], ring, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1]
    )
    alpha = {0: [{0: 1}, {1: 1}], 1: [{1: 1}, {0: 1}]}
    return crossed_product(B, cyclic_group(2), alpha)


def matrix_swap_conjugation_crossed():
    """M2(k) crossed with conjugation by the basis swap."""
    B = matrix_algebra_2x2()
    ident = [{i: 1} for i in range(4)]
    conj = [{3: 1}, {2: 1}, {1: 1}, {0: 1}]
    return crossed_product(B, cyclic_group(2), {0: ident, 1: conj})


def laurent_window_graded(radius):
    """Windowed Laurent monomials t^d, |d| <= radius; strongly graded."""
    ring = ScalarRing()
    dim = 2 * radius + 1
    labels = ["t^%d" % (i - radius) for i in range(dim)]
    mult = {}
    for i in range(dim):
        for j in range(dim):
            d = (i - radius) + (j - radius)
            if abs(d) <= radius:
                mult[(i, j)] = {d + radius: 1}
    unit = [0] * dim
    unit[radius] = 1
    A = AlgebraPresentation(dim, labels, ring, mult, unit)
    return GradedAlgebra(A, ZWindow(radius), [i - radius for i in range(dim)])


def poly_window_graded(radius):
    """Windowed polynomial monomials t^d, 0 <= d <= radius; not strong."""
    ring = ScalarRing()
    dim = radius + 1
    labels = ["t^%d" % i if i else "1" for i in range(dim)]
    mult = {
        (i, j): {i + j: 1}
        for i in range(dim)
        for j in range(dim)
        if i + j <= radius
    }
    unit = [1] + [0] * (dim - 1)
    A = AlgebraPresentation(dim, labels, ring, mult, unit)
    return GradedAlgebra(A, ZWindow(radius), list(range(dim)))


def battery():
    """Named graded algebras with their expected strong-grading verdicts."""
    return [
        ("kZ2-self", group_graded(cyclic_group(2)), True),
        ("kZ3-self", group_graded(cyclic_group(3)), True),
        ("dual-numbers-Z2", truncated_poly_graded(2), False),
        ("jet-plane-Z3", truncated_poly_graded(3), False),
        ("matrix-checkerboard", matrix_checkerboard_graded(), True),
        ("kS3-parity", s3_parity_graded(), True),
        ("two-point-swap-crossed", two_point_swap_crossed(), True),
        ("matrix-swap-crossed", matrix_swap_conjugation_crossed(), True),
    ]


def window_battery():
    return [
        ("laurent-window-2", laurent_window_graded(2), True),
        ("poly-window-2", poly_window_graded(2), False),
    ]


# ---------------------------------------------------------------------------
# the graded-galois suite


def graded_galois_checks(rng, order, theta):
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

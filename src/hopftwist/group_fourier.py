"""Exact group Fourier products for dense tensors over a group algebra.

Over Q the group algebra of each group below splits into small blocks (its
rational Wedderburn decomposition):

  * Z2^k (every element an involution): 2^k characters of +-1;
  * D4: Q^4 + M2(Q);
  * Q8: Q^4 + the rational quaternions H, kept as a 4-dim algebra with the
    signed table of 1, i, j, k.

plan() recognises such a group from its multiplication table alone, by
generators that meet the group's presentation, and gives each element its
coordinates in the blocks, as integer matrices over words in those
generators: the transform T.  T is an algebra map, so on k[G]^(tensor r) =
k[G^r], leg by leg,

    a * b = T^-1 (T a . T b),

with . the block product in every leg: pointwise on the characters, the
matrix or quaternion product on the rest.  The transform runs on integers,
and an integer T_inv with T_inv T = |G| I undoes it up to one exact division
by |G|^r at the end (Diaconis and Rockmore, "Efficient computation of the
Fourier transform on finite groups", J. AMS 3, 1990; Clausen and Baum, Fast
Fourier Transforms, 1993).

The transform is applied as stages of butterflies (x, y) -> (x + y, x - y)
between basis positions along each leg: Z2^k has one stage per generator
(Walsh-Hadamard); D4 and Q8 fold each element with its product by the
central involution z, then run Walsh-Hadamard on G/<z> = Z2^2 over the sums,
and D4 two butterflies over the differences for its M2 block.  Each stage,
with its unpaired positions doubled, undoes itself up to 2, so the reversed
stages give T_inv.  A stage's output at a position is one block coordinate
up to sign, and the block product is carried over to those positions.

A plan is checked once, when it is made: the block images multiply as the
group does on every pair, the stages compute T up to a signed permutation of
the coordinates, and the inverse stages times the stages are |G| I.  A group
outside this list, S3 among them, or a table whose check fails, gets no
plan.

One pass along a leg takes the strided slices of the flat list by the last
leg's digit, runs the stages on them as whole lists with C-level maps, and
concatenates the results, so that the leg moves to the front; after one
pass per leg the legs are back in order.

multilinear.tensor_convolve imports this module only when a product over a
group table first has more than multilinear._SWITCH * dim**arity key pairs,
so processes whose products are all sparser never compile it.
"""

from operator import add, mul, sub

from .multilinear import _fold

# the blocks: (triples, unit), triples (u, v, w, s) for e_u e_v = s e_w
_SCALAR = (((0, 0, 0, 1),), (1,))
_M2 = (
    tuple(
        (2 * i + j, 2 * j + k, 2 * i + k, 1)
        for i in range(2)
        for j in range(2)
        for k in range(2)
    ),
    (1, 0, 0, 1),
)
# 1, i, j, k: i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j
_QUATERNION = {
    (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
    (1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
    (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1),
}
_H = (
    tuple(
        (u, v) + (_QUATERNION[u, v] if u and v else (u + v, 1))
        for u in range(4)
        for v in range(4)
    ),
    (1, 0, 0, 0),
)


class Plan:
    """A checked transform for one group table of order n.

    stages and inverse are tuples of stages, each (pairs, doubled): the
    position pairs of its butterflies (x, y) -> (x + y, x - y) and the
    positions it doubles, which only the inverse stages have; every other
    position is kept.  triples is the block product of one leg over the
    output positions, and pointwise is True when it is the pointwise
    product.  ops counts the list operations of one pass along a leg, over
    the two forward transforms and the inverse one: two per butterfly and
    one per doubled position.  heads caches, per arity, the block-product
    triples of every leg but the last."""

    __slots__ = ("n", "stages", "inverse", "triples", "pointwise", "ops", "heads")

    def __init__(self, n, stages, inverse, triples):
        self.n = n
        self.stages = stages
        self.inverse = inverse
        self.triples = triples
        self.pointwise = all(u == v == w and s == 1 for u, v, w, s in triples)
        self.ops = sum(
            2 * len(pairs) + len(doubled) for pairs, doubled in stages + stages + inverse
        )
        self.heads = {}

    def switch(self, arity):
        """The key pairs past which product() takes a product from the pair
        loop of tensor_convolve.  Measured on integer tensors over
        k[Z2^2], k[Z2^3], k[D4] and k[P8] at arity 2-4, on one CPU of
        a shared 2-core x86 machine, a list operation of the transforms
        costs about as many key pairs as it has elements plus 16, and a
        block-product term about one key pair; both are counted in full and
        the block product twice, which puts the switch at about 1.4-2 times
        the measured break-even (at arity 3: 36, 37 and 57 times dim**arity
        for Z2^3, D4 and Q8, against break-evens near 18, 23 and 36)."""
        return self.ops * arity * (self.n ** (arity - 1) + 16) + 2 * len(self.triples) ** arity

    def product(self, a, b, arity, acc, f):
        """a * b for integer tensors {flat key: int}: with acc None a new
        dict with no zeros, otherwise f times the product added into acc (a
        list with one cell per key, or a dict), which is returned."""
        n = self.n
        size = n ** arity
        X, Y = [0] * size, [0] * size
        for k, v in a.items():
            X[k] = v
        for k, v in b.items():
            Y[k] = v
        X, Y = _along(X, self.stages, n, arity), _along(Y, self.stages, n, arity)
        Z = _along(self._block_product(X, Y, arity), self.inverse, n, arity)
        out = {k: z // size for k, z in enumerate(Z) if z}
        return out if acc is None else _fold(acc, out.keys(), out.values(), f)

    def _block_product(self, A, B, arity):
        """The block product in every leg of two transformed tensors: for
        each triple of the legs but the last, the product of one fiber of
        the last leg, its terms split by sign."""
        if self.pointwise:
            return list(map(mul, A, B))
        n = self.n
        heads = self.heads.get(arity)
        if heads is None:
            level = [(0, 0, 0, 1)]
            for _ in range(arity - 1):
                level = [
                    (U * n + u, V * n + v, W * n + w, S * s)
                    for U, V, W, S in level
                    for u, v, w, s in self.triples
                ]
            plus = tuple((u, v, w) for u, v, w, s in self.triples if s > 0)
            minus = tuple((u, v, w) for u, v, w, s in self.triples if s < 0)
            heads = self.heads[arity] = [
                (U * n, V * n, W * n) + ((plus, minus) if S > 0 else (minus, plus))
                for U, V, W, S in level
            ]
        out = [0] * len(A)
        for U, V, W, plus, minus in heads:
            x, y, z = A[U:U + n], B[V:V + n], out[W:W + n]
            for u, v, w in plus:
                z[w] += x[u] * y[v]
            for u, v, w in minus:
                z[w] -= x[u] * y[v]
            out[W:W + n] = z
        return out


def _along(X, stages, n, legs):
    """The stages applied along each of legs legs of the flat list X."""
    for _ in range(legs):
        parts = [X[j::n] for j in range(n)]
        for pairs, doubled in stages:
            for p, q in pairs:
                x, y = parts[p], parts[q]
                parts[p], parts[q] = list(map(add, x, y)), list(map(sub, x, y))
            for p in doubled:
                parts[p] = [2 * x for x in parts[p]]
        X = []
        for part in parts:
            X += part
    return X


# ---------------------------------------------------------------------------
# plans


def plan(base, dim):
    """The checked Plan of a group table (multilinear._Cells with latin
    set), or None for a group outside the list or a failed check."""
    n = dim
    table = [[base[i * n + j][0][0] for j in range(n)] for i in range(n)]
    e = base.unit
    found = _recognise(table, e, n)
    if found is None:
        return None
    gens, blocks, images, pairs = found
    triples, unit = [], []
    for tri, one in blocks:
        o = len(unit)
        triples.extend((u + o, v + o, w + o, s) for u, v, w, s in tri)
        unit.extend(one)
    # each element's block coordinates, by words in the generators
    gen_img = [sum((images[b][g] for b in range(len(blocks))), ()) for g in range(len(gens))]
    img = {e: tuple(unit)}
    todo = [e]
    for x in todo:
        for g, y in enumerate(gens):
            z = table[x][y]
            if z not in img:
                img[z] = _times(img[x], gen_img[g], triples, n)
                todo.append(z)
    if len(img) != n or any(
        _times(img[x], img[y], triples, n) != img[table[x][y]]
        for x in range(n)
        for y in range(n)
    ):
        return None
    T = [[img[x][c] for x in range(n)] for c in range(n)]
    stages = tuple((tuple(p), ()) for p in pairs)
    inverse = tuple(
        (tuple(p), tuple(sorted(set(range(n)).difference(*p)))) for p in reversed(pairs)
    )
    F, G = _columns(stages, n), _columns(inverse, n)
    if any(
        sum(G[k][i] * F[j][k] for k in range(n)) != (n if i == j else 0)
        for i in range(n)
        for j in range(n)
    ):
        return None
    # the stages' output at each position is +-1 times one block coordinate
    where = {}
    for c in range(n):
        row = [F[x][c] for x in range(n)]
        u = next((u for u in range(n) if T[u] == row or [-t for t in T[u]] == row), None)
        if u is None or u in where:
            return None
        where[u] = (c, 1 if T[u] == row else -1)
    moved = tuple(
        (where[u][0], where[v][0], where[w][0], s * where[u][1] * where[v][1] * where[w][1])
        for u, v, w, s in triples
    )
    return Plan(n, stages, inverse, moved)


def _columns(stages, n):
    """The stages applied to each basis vector: column x of their matrix."""
    return [_along([int(y == x) for y in range(n)], stages, n, 1) for x in range(n)]


def _times(x, y, triples, n):
    out = [0] * n
    for u, v, w, s in triples:
        out[w] += s * x[u] * y[v]
    return tuple(out)


def _recognise(table, e, n):
    """(generators, blocks, images, pairs) for a group in the list: images[b]
    [g] is the image of generator g in block b as that block's coordinates,
    and pairs are the position pairs of each butterfly stage."""
    elems = range(n)

    def power(x, k):
        y = e
        for _ in range(k):
            y = table[y][x]
        return y

    if n > 1 and n & (n - 1) == 0 and all(table[x][x] == e for x in elems):
        # Z2^k: a basis over F2, the 2^k characters, one stage per generator
        gens, span = [], [e]
        for x in elems:
            if x not in span:
                gens.append(x)
                span += [table[y][x] for y in span]
        chars = [[(-1 if s >> g & 1 else 1,) for g in range(len(gens))] for s in range(n)]
        pairs = [
            [(span[i], span[i + (1 << g)]) for i in range(n) if not i >> g & 1]
            for g in range(len(gens))
        ]
        return gens, [_SCALAR] * n, chars, pairs
    if n != 8:
        return None
    order = {x: next(k for k in range(1, n + 1) if power(x, k) == e) for x in elems}
    # D4 = <r, s | r^4, s^2, s r s = r^-1> and Q8 = <i, j | i^4, i^2 =
    # j^2, j i j^-1 = i^-1>; the characters send each generator to +-1
    for a in elems:
        if order[a] != 4:
            continue
        z = power(a, 2)
        for b in elems:
            if b in (e, a, z, power(a, 3)):
                continue
            if table[table[b][a]][power(b, order[b] - 1)] != power(a, 3):
                continue
            chars = [[(x,), (y,)] for x in (1, -1) for y in (1, -1)]
            reps = [e, a, b, table[a][b]]
            pairs = [
                [(q, table[z][q]) for q in reps],
                [(e, a), (b, reps[3])],
                [(e, b), (a, reps[3])],
            ]
            if order[b] == 2:
                # M2: r -> [[0, -1], [1, 0]], s -> diag(1, -1)
                zr, zs, zrs = (table[z][q] for q in reps[1:])
                pairs[1] += [(z, zs), (zrs, zr)]
                m2 = [(0, -1, 1, 0), (1, 0, 0, -1)]
                return [a, b], [_SCALAR] * 4 + [_M2], chars + [m2], pairs
            if order[b] == 4 and power(b, 2) == z:
                # H: i -> i, j -> j
                h = [(0, 1, 0, 0), (0, 0, 1, 0)]
                return [a, b], [_SCALAR] * 4 + [_H], chars + [h], pairs
    return None

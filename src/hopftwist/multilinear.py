"""Finite-dimensional algebra/coalgebra/Hopf presentations and the sparse
leg-indexed tensors their cochains live in.

Conventions:
  * basis indices are 0-based everywhere, including JSON;
  * vectors are sparse dicts {index: scalar} with no stored zeros;
  * linear maps (antipode, module actions) are dense row lists, row i being
    the image of basis i;
  * multiplication and coproduct tables are sparse;
  * tensor legs are 0-based, leftmost leg most significant in flat keys.

Every structure table is a table of integer phase cells (phase_cells,
PhaseCells), made once: the product of basis i and basis j is a tuple of
(k, (v, t, e), n), the numerator n of z_N^e tau^t hbar^v on basis k, over
one denominator D at one conductor N, FLINT's nf_elem layout.  A tagged
root of unity is one cell, so Taft's q-commutation constants stay single
terms.  key_table() is the case of a permutation table, every cell one
key k at phase 0 with numerator 1 over D = 1.

A LegTensor holds its values as phase pieces (scalars): for each phase
(hbar degree v, tau power t, exponent e of z_N) at one conductor N, one
canonical pair of integer numerators over one denominator.  Every operation
multiplies pieces and returns pieces, so a chain of products never leaves
the integers.  A product takes one path for each shape of the table
(rational_kernel).  On a pointwise table with unit coefficients (a dual
host) and, at arity at most 4, on a permutation table (a group algebra),
the product, like every leg map (coproduct_leg, counit_leg, and
leg_embed, one leg map per unit leg it inserts) that sums, is one
scalars.piece_product: the pairs of phases are grouped by the phase they
land on, and all the pairs of one output phase are summed into one
integer accumulator over the lcm of their denominators, then settled
once.  The kernel that multiplies one pair is key intersection on the
pointwise table, where the table makes the all-ones row the unit and a
product with it is the other operand, tensor_convolve's key-product rows
on the permutation table, or the leg map itself.  A leg map whose cells
send each digit to blocks of its own with weight 1, no block reached from
two digits (a group-like coproduct, a unit that is one basis element, and
on a dual host the coproduct d(g) -> sum over xy = g of d(x) (x) d(y) and
the unit sum of every d(g)) only relabels the keys of each piece; when
the blocks fill the block space the all-ones row goes to the all-ones
row.  Every other table (Taft, a twisted k_F[G], fractional or series
structure constants), at any arity, and a permutation table at arity 5
and up, multiply through ``phase_convolve``: the two operands' flat phase
rows against the phase cells, adding the cells' phases, and the product
is settled once.  elem_mul is one phase_convolve on flat phase rows.  The
coproduct, counit and unit come as pieces made once on the host; a
twisted host takes its coproduct as tensors, and builds its {key: value}
coproduct from their pieces only when it is read.  The {key: value} view
is built from the pieces only when it is read (reports, JSON, witnesses),
by scalars.phase_values; a tensor built from a dict and a module action
sum their values through scalars.accumulate.

Over a group algebra k[G], k[G]^(tensor n) = k[G^n]: the product of two
basis keys is one basis key with coefficient 1.  A host detects such a
permutation table once (key_table) and hands tensor_convolve its cache of
key-product rows.  The legs are split into blocks of at most two, a one-leg
block first when the arity is odd; the row of a block value x is a flat list
mapping each block value y to stride * key(x*y), so a product key is
row[kb] at arity 1 or 2 and r0[y0] + r1[y1] at arity 3 or 4.  Rows are
built lazily, one for each block value met, and kept with the table.  A
group table (every row and column a permutation, with a unit) makes the
product of one key with all the keys of a tensor a relabel, so a pair
whose operand has a single key (the unit, a monomial, a basis column)
skips the convolution; the unit's key keeps the keys as they are, and
with the numerator 1 the product is the operand's own dict.  An
accumulator is a plain list with one cell per output key when the pairs
it sums have at least dim**arity term products, and a dict otherwise,
such as for hopf-cochain's sparse arity-3 cochains; its nonzero cells
become the product's piece.

An exact tensor inverse (tensor_invert, _invert_exact) is the one exact
solve of scalars, scalars.solve_columns, on the left regular
representation at every conductor N: one solve, one price, one refusal.
Each unknown is a coordinate of the inverse on a key, each column is over
its own denominator, and the solve expands each column into its phi(N)
multiples by powers of z_N; at N = 1 over a table with a piece_product
kernel the columns come straight from that kernel.  The inverse is priced
from t's pieces and the table before a column is formed, with the one
estimate (scalars.solve_work), and refused past the one cap with
SolveTooCostly.  No step does Cyclotomic arithmetic.

The axiom batteries (verify_algebra, verify_hopf) and ModuleAlgebra are in
batteries, which works on the rows of elem_mul and apply_antipode
(_vec_row, _on_rows): a process that checks no axiom, such as a twist
without a module, never compiles them.

FiniteGroup, the multiplication-table group that group algebras, their
duals and group cochains are built on, is here too: every module that
builds on one loads this one already.
"""

from fractions import Fraction
from math import lcm

from .errors import (
    ArityMismatch,
    BadLeg,
    BadPositions,
    NotInvertible,
    WindowOverflow,
)
from .scalars import (
    ScalarRing,
    _RATIONAL,
    _accumulator,
    _align,
    _nonzero,
    _numerators,
    _row,
    accumulate,
    merge_pieces,
    phase_pieces,
    phase_rows,
    phase_values,
    piece_product,
    pieces_row,
    refuse_costly,
    row_pieces,
    solve_columns,
)


def encode_key(digits, dim):
    key = 0
    for d in digits:
        key = key * dim + d
    return key


def decode_key(key, dim, arity):
    out = [0] * arity
    for t in range(arity - 1, -1, -1):
        key, out[t] = divmod(key, dim)
    return tuple(out)


def tensor_convolve(a, b, dim, arity, base, acc=None, f=1):
    """Multiply two sparse tensors of arity at most 4 over a permutation
    table base (a _Cells: basis i times basis j is basis base[i*dim + j]
    with coefficient 1).

    a, b map flat indices (base-dim digits, leftmost leg most significant) to
    scalar coefficients.  With acc None, returns the product as a new dict
    with exact zeros dropped.  Otherwise adds f times the product into acc,
    a list with one cell per output key or a dict (scalars._accumulator),
    and returns acc: this is how piece_product sums every pair of phases
    that lands on one output phase.  A new product is summed in such an
    accumulator too, a list when len(a) * len(b) >= dim**arity; a
    Cyclotomic or Series value starts from 0 + value.

    Each pair of keys gives one key, read from key-product rows: the legs
    are split into one or two blocks of at most two legs, and a row of a
    block value x maps every block value y to stride * key(x*y).  The b
    keys are split once.
    """
    fresh = acc is None
    if fresh:
        acc = _accumulator(dim ** arity, len(a) * len(b))
    dense = type(acc) is list
    get = None if dense else acc.get
    if arity <= 2:
        # one block: the row of ka maps kb to key(ka*kb)
        cache = _key_rows(base, dim, arity, 1)
        for ka, va in a.items():
            row = cache[ka]
            if f != 1:
                va *= f
            if dense:
                for kb, vb in b.items():
                    acc[row[kb]] += va * vb
                continue
            for kb, vb in b.items():
                idx = row[kb]
                acc[idx] = get(idx, 0) + va * vb
    else:
        # a block of arity - 2 legs over a block of the two last legs
        s0 = dim * dim
        c0 = _key_rows(base, dim, arity - 2, s0)
        c1 = _key_rows(base, dim, 2, 1)
        bd = [divmod(kb, s0) + (vb,) for kb, vb in b.items()]
        for ka, va in a.items():
            r0, r1 = c0[ka // s0], c1[ka % s0]
            if f != 1:
                va *= f
            if dense:
                for y0, y1, vb in bd:
                    acc[r0[y0] + r1[y1]] += va * vb
                continue
            for y0, y1, vb in bd:
                idx = r0[y0] + r1[y1]
                acc[idx] = get(idx, 0) + va * vb
    return _nonzero(acc) if fresh else acc


def _fold(acc, keys, values, c):
    """Add c times each value at its key into acc, a list with one cell per
    key or a dict, and return acc."""
    if type(acc) is list:
        for k, v in zip(keys, values):
            acc[k] += c * v
    else:
        get = acc.get
        for k, v in zip(keys, values):
            acc[k] = get(k, 0) + c * v
    return acc


class _Cells(list):
    """A permutation table as tensor_convolve reads it: cells[i * dim + j]
    is the key of basis i times basis j, whose coefficient is 1.

    rows is the table's cache of key-product rows.  It maps a block shape
    (width in legs, stride) to a _KeyRows, which gets one row for each
    block value met, so that a host built only to be checked once pays only
    for the products it forms.  latin is True when every row and column is
    a permutation of the basis and there is a unit, the basis index unit (a
    group table): there one key times all the keys of a tensor gives
    distinct keys (see _relabel).
    """

    __slots__ = ("rows", "latin", "unit")

    def __init__(self, keys, dim):
        super().__init__(keys)
        self.rows = {}
        basis = list(range(dim))
        self.unit = next(
            (i for i in basis if keys[i * dim:(i + 1) * dim] == keys[i::dim] == basis), None
        )
        self.latin = self.unit is not None and all(
            sorted(keys[i * dim:(i + 1) * dim]) == basis
            and sorted(keys[i::dim]) == basis
            for i in range(dim)
        )


class _KeyRows(dict):
    """{block value x: row of x} for one block shape (see _key_row), each
    row made when x is first met."""

    __slots__ = ("base", "dim", "width", "stride")

    def __missing__(self, x):
        row = self[x] = _key_row(self.base, self.dim, self.width, self.stride, x)
        return row


def _key_rows(base, dim, width, stride):
    """The host's _KeyRows of base for one block shape."""
    cache = base.rows.get((width, stride))
    if cache is None:
        cache = base.rows[width, stride] = _KeyRows()
        cache.base, cache.dim, cache.width, cache.stride = base, dim, width, stride
    return cache


def _key_row(base, dim, width, stride, x):
    """The row of block value x: stride * key(x*y) for each block value y
    of a one- or two-leg block, over a permutation table."""
    if width == 1:
        return [k * stride for k in base[x * dim:(x + 1) * dim]]
    x0, x1 = divmod(x, dim)
    low = base[x1 * dim:(x1 + 1) * dim]
    return [(h * dim + k) * stride for h in base[x0 * dim:(x0 + 1) * dim] for k in low]


def _relabel(a, b, dim, arity, base, acc, f):
    """The product of a and b, one of them with a single key, over a group
    table (base.latin) at arity at most 4, as a piece_product kernel: the
    single key moves every key of the other operand to a key of its own,
    so the product is a relabel of the other operand's values times the
    single value, {row[kb]: va * vb}, with nothing to sum and no zero.  The
    unit's key (base.unit on every leg) leaves the keys as they are; with
    the numerator 1 and no accumulator the product is the other operand's
    dict itself, shared as piece dicts are never changed in place.  The
    unit case is read from the key: a dict's keys() is a new view on every
    call, so it cannot be told by identity."""
    e = base.unit
    unit = e * (dim ** arity - 1) // (dim - 1) if e else 0
    if len(a) == 1:
        ((ka, c),) = a.items()
        other = b
        if ka == unit:
            keys = None
        elif arity <= 2:
            row = _key_rows(base, dim, arity, 1)[ka]
            keys = [row[kb] for kb in b]
        else:
            s0 = dim * dim
            r0 = _key_rows(base, dim, arity - 2, s0)[ka // s0]
            r1 = _key_rows(base, dim, 2, 1)[ka % s0]
            keys = [r0[kb // s0] + r1[kb % s0] for kb in b]
    else:
        ((kb, c),) = b.items()
        other = a
        if kb == unit:
            keys = None
        elif arity <= 2:
            cache = _key_rows(base, dim, arity, 1)
            keys = [cache[ka][kb] for ka in a]
        else:
            s0 = dim * dim
            y0, y1 = divmod(kb, s0)
            c0 = _key_rows(base, dim, arity - 2, s0)
            c1 = _key_rows(base, dim, 2, 1)
            keys = [c0[ka // s0][y0] + c1[ka % s0][y1] for ka in a]
    if keys is None:
        if c == 1 and acc is None:
            return other
        keys = other.keys()
    if acc is None:
        return {k: c * v for k, v in zip(keys, other.values())}
    return _fold(acc, keys, other.values(), c * f)


def _clean(d):
    return {k: v for k, v in d.items() if v}


# ---------------------------------------------------------------------------
# integer rows


def _common_keys(ones):
    """The piece_product kernel of a pointwise host with unit coefficients
    at one arity: the pointwise product of two numerator dicts, their key
    intersection.  ones is the all-ones row of that arity (_AllOnes), the
    unit of such a table, so a product with it is the other operand's
    numerators, the dict itself: it is found by identity, or by a dict
    comparison after a length check.  Piece dicts are never changed in
    place, so a product may share one with its operand."""
    size = len(ones)

    def kernel(a, b, acc, f):
        if len(a) == size and (a is ones or a == ones):
            out = b
        elif len(b) == size and (b is ones or b == ones):
            out = a
        else:
            if len(b) < len(a):
                a, b = b, a
            out = {k: n * b[k] for k, n in a.items() if k in b}
        return out if acc is None else _fold(acc, out.keys(), out.values(), f)

    return kernel


class _AllOnes(dict):
    """{arity: the all-ones row {key: 1} of host^(tensor arity)}, each
    made when first asked for.  One object per arity, so that the leg maps
    that make it (_leg_map) and the products that read it (_common_keys)
    mostly meet it by identity."""

    __slots__ = ("dim",)

    def __init__(self, dim):
        super().__init__()
        self.dim = dim

    def __missing__(self, arity):
        row = self[arity] = dict.fromkeys(range(self.dim ** arity), 1)
        return row


class _Relabel(dict):
    """Leg cells that send each digit d to the blocks codes[d], each with
    weight 1 and none reached from two digits (see _leg_cells).  _leg_map
    moves each key to one key per block, with its numerator as it is: no
    key is dropped or merged, so each piece stays canonical.  full when the
    blocks fill the block space of width digits: then the all-ones row goes
    to the all-ones row.  one when every digit has one block.

    The dict maps low, the place value of the leg (dim ** the number of
    legs right of it), to the offsets of each digit's blocks at that leg,
    codes[d] times low: an int when one, else a tuple, made once for each
    low."""

    __slots__ = ("codes", "one", "full")

    def __init__(self, codes, width, dim):
        super().__init__()
        self.codes = codes
        self.one = all(len(c) == 1 for c in codes)
        self.full = sorted(c for cs in codes for c in cs) == list(range(dim ** width))

    def __missing__(self, low):
        if self.one:
            at = [c * low for (c,) in self.codes]
        else:
            at = [tuple(c * low for c in cs) for cs in self.codes]
        self[low] = at
        return at


def _scaled(a, c, acc, f):
    """Numerators a times the scalar's numerators c = {0: n}, a
    piece_product kernel."""
    n = c[0]
    if acc is None:
        return {k: x * n for k, x in a.items()}
    return _fold(acc, a.keys(), a.values(), n * f)


_PHASE0 = (0, 0, 0)


class PhaseCells:
    """A table of integer phase cells, FLINT's nf_elem layout: cells[n] is a
    tuple of (k, (v, t, e), numerator) over the common denominator den at
    the conductor N, or None for a value outside a window (see
    phase_cells).  top is the largest absolute numerator, 1 for a table of
    no cell.  at(L) gives the cells with their exponents scaled to a
    multiple L of N, made once for each L."""

    __slots__ = ("cells", "den", "N", "top", "_at")

    def __init__(self, cells, den, N):
        self.cells = cells
        self.den = den
        self.N = N
        self.top = max((abs(n) for cell in cells if cell for _k, _p, n in cell), default=1)
        self._at = {}

    def at(self, L):
        if L == self.N:
            return self.cells
        got = self._at.get(L)
        if got is None:
            s = L // self.N
            got = self._at[L] = [
                c if c is None else tuple((k, (v, t, e * s), x) for k, (v, t, e), x in c)
                for c in self.cells
            ]
        return got


def phase_cells(values):
    """The PhaseCells of a list of sparse value dicts: cells[n] holds one
    (k, (v, t, e), numerator) for each phase (hbar degree v, tau power t,
    exponent e of z_N) of the value of key k in values[n], sorted, over the
    common denominator at N, the lcm of the values' conductors.  A tagged
    root is one cell with its exponent below N but not reduced (see
    phase_rows), so a product of roots stays one term.  values[n] None
    stays None."""
    (nums, den), N = phase_rows(
        {(n, k): w for n, vec in enumerate(values) if vec for k, w in vec.items()},
        roots=True,
    )
    cells = [None if vec is None else [] for vec in values]
    for ((n, k), v, t, e), x in sorted(nums.items()):
        if x:
            cells[n].append((k, (v, t, e), x))
    return PhaseCells([c if c is None else tuple(c) for c in cells], den, N)


def phase_convolve(a, b, dim, arity, table, K, N):
    """Product of two flat phase rows of the given arity over the phase
    cells table (PhaseCells), at conductor N, a multiple of table.N.

    a and b are ({(key, v, t, e): numerator}, den) with exponents below N.
    Each pair of terms meets the cells of its key pairs leg by leg; a term
    of the product adds the two phases and the cells', drops an hbar degree
    past K (0 over an exact ring), and takes its exponent mod N, not
    reduced below phi(N).  Returns the product's row over a's times b's
    denominator times table.den**arity, exact zeros dropped.  A pair of
    keys that meets a cell None (a product outside a window) on any leg
    raises WindowOverflow."""
    cells = table.cells if N == table.N else table.at(N)
    out = {}
    get = out.get
    if arity == 1:
        for (ka, va, ta, ea), x in a[0].items():
            row = ka * dim
            for (kb, vb, tb, eb), y in b[0].items():
                cell = cells[row + kb]
                if cell is None:
                    raise WindowOverflow("a basis product outside the window")
                c = x * y
                v0, t0, e0 = va + vb, ta + tb, ea + eb
                for k, (vc, tc, ec), w in cell:
                    v = v0 + vc
                    if v > K:
                        continue
                    idx = (k, v, t0 + tc, (e0 + ec) % N)
                    r = get(idx, 0) + c * w
                    if r:
                        out[idx] = r
                    else:
                        out.pop(idx, None)
        return out, a[1] * b[1] * table.den
    if arity == 2:
        bd = [(*divmod(kb, dim), vb, tb, eb, y) for (kb, vb, tb, eb), y in b[0].items()]
        for (ka, va, ta, ea), x in a[0].items():
            a0, a1 = divmod(ka, dim)
            a0 *= dim
            a1 *= dim
            for b0, b1, vb, tb, eb, y in bd:
                c0, c1 = cells[a0 + b0], cells[a1 + b1]
                if c0 is None or c1 is None:
                    raise WindowOverflow("a basis product outside the window")
                c = x * y
                for k0, (v0, t0, e0), w0 in c0:
                    v0 += va + vb
                    if v0 > K:
                        continue
                    k0 *= dim
                    t0 += ta + tb
                    e0 += ea + eb
                    w0 *= c
                    for k1, (v1, t1, e1), w1 in c1:
                        v = v0 + v1
                        if v > K:
                            continue
                        idx = (k0 + k1, v, t0 + t1, (e0 + e1) % N)
                        r = get(idx, 0) + w0 * w1
                        if r:
                            out[idx] = r
                        else:
                            out.pop(idx, None)
        return out, a[1] * b[1] * table.den ** 2
    strides = [dim ** (arity - 1 - s) for s in range(arity)]
    bd = [
        ([kb // s % dim for s in strides], vb, tb, eb, y)
        for (kb, vb, tb, eb), y in b[0].items()
    ]
    for (ka, va, ta, ea), x in a[0].items():
        da = [ka // s % dim * dim for s in strides]
        for db, vb, tb, eb, y in bd:
            cs = [cells[p + q] for p, q in zip(da, db)]
            if None in cs:
                raise WindowOverflow("a basis product outside the window")
            partial = [(0, va + vb, ta + tb, ea + eb, x * y)]
            for cell, st in zip(cs, strides):
                partial = [
                    (key + k * st, v + vc, t + tc, e + ec, c * w)
                    for key, v, t, e, c in partial
                    for k, (vc, tc, ec), w in cell
                    if v + vc <= K
                ]
            for key, v, t, e, c in partial:
                idx = (key, v, t, e % N)
                r = get(idx, 0) + c
                if r:
                    out[idx] = r
                else:
                    out.pop(idx, None)
    return out, a[1] * b[1] * table.den ** arity


def phase_map(a, dim, arity, leg, width, table, K, N):
    """The flat phase row a (see phase_convolve) with the digit d at leg
    replaced, for each (code, phase, n) of table.cells[d], by the block of
    width digits code, the phase added and the numerator times n; over a's
    denominator times table.den.  A cell None raises WindowOverflow."""
    cells = table.at(N)
    low = dim ** (arity - 1 - leg)
    wide = dim ** width
    out = {}
    get = out.get
    for (key, v, t, e), x in a[0].items():
        head, tail = divmod(key, low)
        head, d = divmod(head, dim)
        cell = cells[d]
        if cell is None:
            raise WindowOverflow("a value outside the window")
        head *= wide
        for code, (vc, tc, ec), w in cell:
            u = v + vc
            if u > K:
                continue
            idx = ((head + code) * low + tail, u, t + tc, (e + ec) % N)
            r = get(idx, 0) + x * w
            if r:
                out[idx] = r
            else:
                out.pop(idx, None)
    return out, a[1] * table.den


class _MulOps:
    """Shared multiplication helpers for algebra-like presentations."""

    def _init_mul(self, dim, labels, ring, mult, unit):
        self.dim = dim
        self.labels = list(labels)
        self.ring = ring
        # normalize: {(i, j): {k: scalar}} with zeros dropped
        self.mult = {}
        for (i, j), cell in mult.items():
            cc = {k: ring.coerce(v) for k, v in cell.items()}
            cc = _clean(cc)
            if cc:
                self.mult[(i, j)] = cc
        self.unit = [ring.coerce(v) for v in unit]
        self._phase = None
        self._keys = 0
        self._units = {}
        self._unit_cells = {}
        self._ones = _AllOnes(dim)
        self._pw = 0
        self._comm = None

    def share_product(self, other):
        """Use other's product and its caches (the phase and key tables, the
        unit pieces and cells, the all-ones rows, the pointwise and
        commutativity tests): other has the same dim, ring, mult and unit,
        as the host a twist conjugates.  other's key table is made first, so
        that both hosts hold the one table and its key rows."""
        other.key_table()
        for name in (
            "mult", "_phase", "_keys", "_units", "_unit_cells", "_ones", "_pw", "_comm",
        ):
            setattr(self, name, getattr(other, name))

    def basis_mul(self, i, j):
        return self.mult.get((i, j), {})

    def phase_table(self):
        """The product as integer phase cells (phase_cells), made once:
        cells[i * dim + j] for basis i times basis j."""
        if self._phase is None:
            dim = self.dim
            self._phase = phase_cells(
                [self.mult.get((i, j), {}) for i in range(dim) for j in range(dim)]
            )
        return self._phase

    def key_table(self):
        """The product as a permutation table (_Cells), made once: the key
        of basis i times basis j, when every such product is one basis
        element with coefficient 1; else None."""
        if self._keys == 0:
            table = self.phase_table()
            perm = table.den == 1 and all(
                len(cell) == 1 and cell[0][1:] == (_PHASE0, 1) for cell in table.cells
            )
            self._keys = _Cells([cell[0][0] for cell in table.cells], self.dim) if perm else None
        return self._keys

    def rational_kernel(self, arity):
        """The piece_product kernel of a product at arity, or None when the
        product is one phase_convolve: key intersection on a pointwise host
        with unit coefficients, where a product with the all-ones row is the
        other operand (_common_keys; the rule is read from the table by
        pointwise_coeffs, never from the declared unit); at arity at most 4
        over a permutation table (key_table), tensor_convolve, and a
        _relabel for a pair with a single-key operand over a group table."""
        if self.pointwise_coeffs() is not None:
            return _common_keys(self._ones[arity])
        tbl = self.key_table()
        if tbl is None or arity > 4:
            return None
        dim, relabel = self.dim, tbl.latin

        def kernel(x, y, acc, f):
            if relabel and (len(x) == 1 or len(y) == 1):
                return _relabel(x, y, dim, arity, tbl, acc, f)
            return tensor_convolve(x, y, dim, arity, tbl, acc, f)

        return kernel

    def unit_rows(self, arity):
        """(pieces, N): the phase pieces of the unit of host^(tensor arity),
        made once for each arity: the unit of arity - 1 embedded with the
        unit on a new last leg."""
        got = self._units.get(arity)
        if got is None:
            if arity < 2:
                got = phase_pieces(self.elem_unit() if arity else {0: self.ring.one()})
            else:
                lower = LegTensor._of_rows(self, arity - 1, *self.unit_rows(arity - 1))
                got = lower.leg_embed(range(arity - 1), arity)._phases()
            self._units[arity] = got
        return got

    def unit_cells(self, first):
        """The leg cells (see _leg_cells) that put the unit beside a leg,
        made once for each side: digit d becomes 1 (x) d when first, else d
        (x) 1; a relabel (_Relabel) when every unit coefficient is 1, such
        as a unit that is one basis element or the sum of every basis
        element of a dual host."""
        got = self._unit_cells.get(first)
        if got is None:
            dim = self.dim
            got = self._unit_cells[first] = self._leg_cells({
                (d, k * dim + d if first else d * dim + k): u
                for d in range(dim)
                for k, u in self.elem_unit().items()
            }, 2)
        return got

    def _leg_cells(self, flat, width):
        """(pieces, N, relabel): the phase pieces of {(basis index i,
        code): value}, each code a block of width digits, at one conductor
        N, (cells, D) per phase, cells[i] the (code, numerator) pairs of i
        over the denominator D.  relabel, a _Relabel of the codes of each
        i, only when the map is a fan-out of weight 1: one phase, phase 0,
        N = 1, D = 1, every numerator 1, every i with at least one code and
        no code reached from two i.  A map that merges keys (the counit of a
        group algebra sends every i to code 0) or drops them (a dual host's
        counit gives the digits other than e no code) is summed by
        _leg_map."""
        return self._piece_cells(*phase_pieces(flat), width)

    def _piece_cells(self, pieces, N, width):
        """_leg_cells of canonical phase pieces at conductor N whose
        numerators are keyed (basis index i, code)."""
        out = {}
        for p, (nums, den) in pieces.items():
            cells = [[] for _ in range(self.dim)]
            for (i, code), n in nums.items():
                cells[i].append((code, n))
            for cell in cells:
                cell.sort()
            out[p] = (cells, den)
        cells, den = out.get(_PHASE0, ((), 0))
        codes = [tuple(c for c, _n in cell) for cell in cells]
        reached = [c for cs in codes for c in cs]
        if (
            N == 1 and len(out) == den == 1 and all(codes)
            and all(n == 1 for cell in cells for _c, n in cell)
            and len(reached) == len(set(reached))
        ):
            return out, N, _Relabel(codes, width, self.dim)
        return out, N, None

    def elem_unit(self):
        return {k: v for k, v in enumerate(self.unit) if v}

    def elem_mul(self, u, v):
        """u * v for sparse vectors {basis index: value}: one
        phase_convolve of their flat phase rows against the phase cells.
        An empty factor gives {}, and two single rational terms over a
        rational cell give the cell of basis_mul scaled, in key order, each
        value one Fraction of integer products."""
        if not u or not v:
            return {}
        if len(u) == 1 == len(v):
            ((i, a),), ((j, b),) = u.items(), v.items()
            cell = self.basis_mul(i, j)
            if type(a) in _RATIONAL and type(b) in _RATIONAL and all(
                type(w) is Fraction for w in cell.values()
            ):
                n, d = a.numerator * b.numerator, a.denominator * b.denominator
                if not n:
                    return {}
                return {
                    k: Fraction(n * w.numerator, d * w.denominator)
                    for k, w in sorted(cell.items())
                }
        K = self.ring.hbar_order
        rows = (_vec_row(u), _vec_row(v))
        row, N = _on_rows(phase_convolve, rows, self.phase_table(), K or 0, self.dim, 1)
        return phase_values(row, K, N)

    def pointwise_coeffs(self):
        """"one" when the product is pointwise with unit coefficients
        (basis i times basis i is basis i, every other product is 0), else
        None.  Over such a host a product of rational tensors is the key
        intersection of their integer numerators; any other pointwise host
        is a structure table like the rest."""
        if self._pw == 0:
            one = self.ring.one()
            unit = len(self.mult) == self.dim and all(
                i == j and list(cell) == [i] and cell[i] == one
                for (i, j), cell in self.mult.items()
            )
            self._pw = "one" if unit else None
        return self._pw

    def product_commutes(self):
        """True when basis i times basis j equals basis j times basis i for
        every i and j, read from the structure table once.  A cell on one
        side only is a product that does not commute."""
        if self._comm is None:
            mult = self.mult
            self._comm = all(mult.get((j, i)) == cell for (i, j), cell in mult.items())
        return self._comm



class AlgebraPresentation(_MulOps):
    """Finite-dimensional algebra, with an optional scalar associator
    {(i, j, k): phi} for a*(b*c) = phi(a,b,c) * (a*b)*c; verify_algebra
    checks either law."""

    def __init__(self, dim, labels, ring, mult, unit, associator=None):
        self._init_mul(dim, labels, ring, mult, unit)
        self.associator = associator


class HopfPresentation(_MulOps):
    """Hopf algebra (or bialgebra when antipode is None) on a finite basis."""

    def __init__(
        self,
        dim,
        labels,
        ring,
        mult,
        unit,
        coproduct,
        counit,
        antipode=None,
        name=None,
    ):
        self._init_mul(dim, labels, ring, mult, unit)
        self._coproduct = {}
        for i, cell in coproduct.items():
            cc = _clean({jk: ring.coerce(v) for jk, v in cell.items()})
            if cc:
                self._coproduct[i] = cc
        self._cop_flat = None
        self.counit = [ring.coerce(v) for v in counit]
        self.antipode = None
        if antipode is not None:
            self.antipode = [
                [ring.coerce(v) for v in row] for row in antipode
            ]
        self.name = name or "hopf-%d" % dim
        self._order0 = None
        self._cop_pieces = None
        self._counit_pieces = None
        self._antipode_cells = None
        self._cocomm = None

    @property
    def coproduct(self):
        """{i: {(j, k): value}}, the coproduct of basis i.  A host whose
        coproduct was handed over as tensors (set_coproduct_tensors, a
        twist over a noncommuting product) builds these values from their
        pieces on the first read, with scalars.phase_values; the pieces
        stay as they are."""
        if self._coproduct is None:
            pieces, N = self._cop_flat
            dim = self.dim
            cop = {}
            values = phase_values(pieces_row(pieces, N, N), self.ring.hbar_order, N)
            for (i, code), v in sorted(values.items()):
                cop.setdefault(i, {})[divmod(code, dim)] = v
            self._coproduct = cop
        return self._coproduct

    def set_coproduct_tensors(self, tensors):
        """Take the coproduct of basis i as the arity-2 tensor tensors[i],
        on integers: the pieces of every tensor, keyed (i, code of j (x)
        k), are merged at the lcm of their conductors into one canonical
        set (scalars.merge_pieces), the pieces that coproduct_pieces()
        builds from values, and its leg cells are made from them by the
        same builder.  The values (coproduct) are built only when read."""
        parts = [(i, *t._phases()) for i, t in tensors.items()]
        self._cop_flat = merge_pieces([
            ({p: ({(i, k): n for k, n in nums.items()}, den) for p, (nums, den) in pieces.items()}, N)
            for i, pieces, N in parts
        ])
        self._cop_pieces = self._piece_cells(*self._cop_flat, 2)
        self._coproduct = None

    def coproduct_cocommutes(self):
        """True when the coproduct of every basis element is unchanged by
        swapping its two legs, read from the table once."""
        if self._cocomm is None:
            self._cocomm = all(
                {(k, j): w for (j, k), w in cell.items()} == cell
                for cell in self.coproduct.values()
            )
        return self._cocomm

    @property
    def commutative(self):
        """product_commutes(), read from the table."""
        return self.product_commutes()

    @property
    def axiom_ids(self):
        """verify_hopf's check ids: the bialgebra axioms and the antipode's,
        S^2 = id only on a host whose product commutes or whose coproduct
        cocommutes, as read from its tables (product_commutes,
        coproduct_cocommutes)."""
        ids = [
            "unit-laws",
            "associativity",
            "coassociativity",
            "counit-laws",
            "coproduct-morphism",
            "counit-morphism",
            "antipode-convolution",
        ]
        if self.antipode is not None:
            ids += ["antipode-unit", "antipode-antihomomorphism"]
            if self.product_commutes() or self.coproduct_cocommutes():
                ids.append("antipode-square")
        return ids

    # -- coalgebra helpers

    def basis_coproduct(self, i):
        return self.coproduct.get(i, {})

    def coproduct_pieces(self):
        """The coproduct as leg cells (see _leg_cells), the block of basis j
        (x) k as the code j * dim + k; a relabel when it is group-like."""
        if self._cop_pieces is None:
            self._cop_pieces = self._leg_cells({
                (i, j * self.dim + k): w
                for i, cell in self.coproduct.items()
                for (j, k), w in cell.items()
            }, 2)
        return self._cop_pieces

    def counit_pieces(self):
        """The counit as leg cells (see _leg_cells), every code 0."""
        if self._counit_pieces is None:
            self._counit_pieces = self._leg_cells(
                {(i, 0): e for i, e in enumerate(self.counit) if e}, 0
            )
        return self._counit_pieces

    def share_leg_cells(self, other, coproduct):
        """Use other's counit leg cells, and its coproduct's when
        coproduct: other has the same dim and counit, and then the same
        coproduct, as the host a twist conjugates."""
        self._counit_pieces = other.counit_pieces()
        if coproduct:
            self._cop_pieces = other.coproduct_pieces()

    def elem_coproduct(self, u):
        """Coproduct of a sparse vector as a sparse rank-2 dict {(j,k): c}."""
        return dict(LegTensor.from_element(self, u).coproduct_leg(0).entries())

    def elem_counit(self, u):
        return LegTensor.from_element(self, u).counit_leg(0).data.get(0, self.ring.zero())

    def apply_antipode(self, u):
        """S(u) for a sparse vector: one phase_map over the antipode's
        integer phase cells, made once."""
        if self.antipode is None:
            raise ValueError("presentation has no antipode")
        if self._antipode_cells is None:
            self._antipode_cells = phase_cells(
                [{j: w for j, w in enumerate(row) if w} for row in self.antipode]
            )
        K = self.ring.hbar_order
        row, N = _on_rows(
            phase_map, (_vec_row(u),), self._antipode_cells, K or 0, self.dim, 1, 0, 1
        )
        return phase_values(row, K, N)

    def order0_host(self):
        """Exact-ring twin with hbar-degree-0 structure constants."""
        if not self.ring.is_series:
            return self
        if self._order0 is None:
            exact = ScalarRing()

            def drop(v):
                c0 = v.coeffs[0]
                if any(k != 0 for k in c0.terms):
                    raise NotInvertible(
                        "order-0 structure constants involve tau"
                    )
                return c0.terms.get(0, Fraction(0))

            mult = {
                ij: {k: drop(v) for k, v in cell.items()}
                for ij, cell in self.mult.items()
            }
            cop = {
                i: {jk: drop(v) for jk, v in cell.items()}
                for i, cell in self.coproduct.items()
            }
            self._order0 = HopfPresentation(
                self.dim,
                self.labels,
                exact,
                mult,
                [drop(v) for v in self.unit],
                cop,
                [drop(v) for v in self.counit],
                antipode=None,
                name=self.name + "-order0",
            )
        return self._order0


def with_series_ring(host, order):
    """Rebuild a HopfPresentation over the order-K series ring.

    Exact structure constants coerce into constant series; the original
    host is untouched."""
    ring = ScalarRing(hbar_order=order)
    return HopfPresentation(
        host.dim,
        host.labels,
        ring,
        host.mult,
        host.unit,
        host.coproduct,
        host.counit,
        antipode=host.antipode,
        name=host.name + "-h%d" % order,
    )


class LegTensor:
    """Sparse element of host^(tensor arity), keyed by flat key.

    The values are phase pieces at one conductor N (scalars.phase_pieces):
    {(v, t, e): (numerators, denominator)}, canonical, e below phi(N), no
    empty phase, N sharing no factor with every exponent (N = 1 when every
    value is rational).  data, {key: value},
    is a view made on its first read, scalars.phase_values of the pieces'
    flat row; a tensor built from a dict keeps it as that view and makes
    its pieces on its first operation.
    Every product, leg map and exact inverse runs on integers (see mul,
    _leg_map and _invert_exact).
    """

    __slots__ = ("host", "arity", "_data", "_rows", "_n")

    def __init__(self, host, arity, entries, _checked=False):
        self.host = host
        self.arity = arity
        self._rows = None  # made from data by the first operation
        if _checked:
            self._data = entries
            return
        data = {}
        dim = host.dim
        for key, v in entries.items():
            if isinstance(key, tuple):
                if len(key) != arity:
                    raise ArityMismatch(
                        "key %r has %d legs, tensor has %d"
                        % (key, len(key), arity)
                    )
                if not all(0 <= d < dim for d in key):
                    raise ValueError("basis index out of range in %r" % (key,))
                key = encode_key(key, dim)
            accumulate(data, key, host.ring.coerce(v))
        self._data = data

    @staticmethod
    def _of_rows(host, arity, rows, N=1):
        t = LegTensor.__new__(LegTensor)
        t.host = host
        t.arity = arity
        t._data = None
        t._rows = rows
        t._n = N
        return t

    # -- construction

    @staticmethod
    def unit(host, arity):
        return LegTensor._of_rows(host, arity, *host.unit_rows(arity))

    @staticmethod
    def from_element(host, vec):
        return LegTensor(host, 1, dict(vec), _checked=True)

    @staticmethod
    def outer(host, vecs):
        """Tensor product of sparse vectors, one per leg."""
        arity = len(vecs)
        dim = host.dim
        items = [(0, host.ring.one())]
        for vec in vecs:
            nxt = []
            for key, c in items:
                for k, v in vec.items():
                    nxt.append((key * dim + k, c * v))
            items = nxt
        data = {}
        for key, c in items:
            accumulate(data, key, c)
        return LegTensor(host, arity, data, _checked=True)

    # -- views

    @property
    def data(self):
        """{flat key: value}, built from the pieces on first read."""
        if self._data is None:
            N = self._n
            self._data = phase_values(
                pieces_row(self._rows, N, N), self.host.ring.hbar_order, N
            )
        return self._data

    def rows(self):
        """The phase pieces {(v, t, e): (numerators, den)}, made from data
        on the first call."""
        return self._phases()[0]

    def _phases(self):
        if self._rows is None:
            self._rows, self._n = phase_pieces(self._data)
        return self._rows, self._n

    def entries(self):
        """Sorted (digit tuple, scalar) pairs."""
        dim = self.host.dim
        return [
            (decode_key(k, dim, self.arity), v)
            for k, v in sorted(self.data.items())
        ]

    def term_count(self):
        if self._data is None:
            return len(set().union(*[nums for nums, _ in self._rows.values()]))
        return len(self._data)

    def is_zero(self):
        if self._data is None:
            return not self._rows
        return not self._data

    def over(self, host):
        """The same values over a host of the same dim, ring and product;
        the pieces move as they are."""
        return LegTensor._of_rows(host, self.arity, *self._phases())

    def _product(self, B, M, kernel, arity):
        """The tensor of the given arity whose pieces are piece_product of
        these pieces with pieces B at conductor M, through kernel."""
        A, N = self._phases()
        host = self.host
        rows, L = piece_product(
            A, N, B, M, host.ring.hbar_order or 0, kernel, host.dim ** arity
        )
        return LegTensor._of_rows(host, arity, rows, L)

    # -- algebra

    def mul(self, other):
        """Product in host^(tensor arity), on integers only, by one path for
        each shape of the host's table (rational_kernel).  On a pointwise
        host with unit coefficients (the dual hosts), and at arity at most 4
        on a permutation table (every group algebra, also over series),
        piece_product sums every pair of phases that lands on one output
        phase into one accumulator, through the host's kernel.  Over any
        other table (Taft's roots of unity, a twisted k_F[G], fractional or
        series structure constants), and at arity 5 and up, both operands
        become one flat phase row at the lcm L of their conductors and the
        table's, phase_convolve multiplies them against the host's phase
        cells, and the product is settled once."""
        if other.host is not self.host:
            raise ValueError("tensors live over different hosts")
        if other.arity != self.arity:
            raise ArityMismatch(
                "arity %d vs %d" % (self.arity, other.arity)
            )
        host, arity = self.host, self.arity
        kernel = host.rational_kernel(arity)
        if kernel is not None:
            return self._product(*other._phases(), kernel, arity)
        table = host.phase_table()
        A, N = self._phases()
        B, M = other._phases()
        L = lcm(N, M, table.N)
        row = phase_convolve(
            pieces_row(A, N, L), pieces_row(B, M, L), host.dim, arity,
            table, host.ring.hbar_order or 0, L,
        )
        return LegTensor._of_rows(host, arity, *row_pieces(row, L))

    def add(self, other):
        return self._add(other, False)

    def sub(self, other):
        """self - other: the empty tensor, with no merge, when both hold
        equal pieces at one conductor, else one merge (_add).  Every
        residual check of two sides is one sub."""
        if other.host is self.host and other.arity == self.arity:
            A, N = self._phases()
            B, M = other._phases()
            if N == M and A == B:
                return LegTensor._of_rows(self.host, self.arity, {})
        return self._add(other, True)

    def _add(self, other, negate):
        """self + other, or self - other with negate: their pieces merged
        at the lcm of the two conductors (scalars.merge_pieces)."""
        if other.host is not self.host or other.arity != self.arity:
            raise ArityMismatch("cannot add tensors of different shape")
        A, N = self._phases()
        B, M = other._phases()
        if negate:
            B = {p: ({k: -n for k, n in nums.items()}, d) for p, (nums, d) in B.items()}
        return LegTensor._of_rows(self.host, self.arity, *merge_pieces([(A, N), (B, M)]))

    def scale(self, c):
        host = self.host
        C, M = phase_pieces({0: host.ring.coerce(c)})
        return self._product(C, M, _scaled, self.arity)

    def eq(self, other):
        if self.host is not other.host or self.arity != other.arity:
            return False
        A, N = self._phases()
        B, M = other._phases()
        if N == M:
            return A == B
        return self.sub(other).is_zero()

    def __eq__(self, other):
        if not isinstance(other, LegTensor):
            return NotImplemented
        return self.eq(other)

    __hash__ = None

    # -- leg calculus

    def leg_embed(self, positions, arity_out):
        """The tensor of arity_out with this tensor's legs at positions and
        the unit on every other leg: one _leg_map per missing leg p, in
        increasing order, over the host's unit cells (digit d of leg p - 1
        becomes d (x) 1, or for p = 0 digit d of leg 0 becomes 1 (x) d).
        An arity-0 tensor is a scalar, and gives the unit scaled by it."""
        positions = tuple(positions)
        if len(positions) != self.arity:
            raise BadPositions(
                "%d positions for a %d-leg tensor" % (len(positions), self.arity)
            )
        if any(
            positions[i] >= positions[i + 1] for i in range(len(positions) - 1)
        ):
            raise BadPositions("positions must be strictly increasing")
        if positions and (positions[0] < 0 or positions[-1] >= arity_out):
            raise BadPositions("positions out of range")
        host = self.host
        if not self.arity:
            return LegTensor.unit(host, arity_out)._product(*self._phases(), _scaled, arity_out)
        t = self
        for p in range(arity_out):
            if p not in positions:
                t = t._leg_map(max(p - 1, 0), host.unit_cells(p == 0), 2)
        return t

    def coproduct_leg(self, leg):
        return self._leg_map(leg, self.host.coproduct_pieces(), 2)

    def counit_leg(self, leg):
        return self._leg_map(leg, self.host.counit_pieces(), 0)

    def _leg_map(self, leg, host_cells, width):
        """The tensor with the digit d at leg replaced, for each (code, n)
        of the host's cells[d], by the block of width digits code, the
        coefficient times n; the pieces of the host's cells are summed per
        output phase like a product's (piece_product), the kernel adding
        each term, times the pair's scale f, straight into piece_product's
        accumulator, a list or a dict, or into a new dict for a phase met
        by one pair.  Cells with a
        _Relabel are a relabel of each piece's keys, one new key per code of
        the digit with the numerator as it is: a fan-out of weight 1 sums
        nothing, drops or merges no key and changes no content, so no
        piece_product is formed.  When the codes fill the block space, a
        piece that is the all-ones row (by identity, or by a dict comparison
        after a length check) becomes the host's all-ones row of the output
        arity, the object that _common_keys meets by identity.  The moved
        pieces may be shared: piece dicts are never changed in place."""
        if not 0 <= leg < self.arity:
            raise BadLeg("leg %d of %d" % (leg, self.arity))
        dim = self.host.dim
        low = dim ** (self.arity - 1 - leg)
        wide = dim ** width
        arity = self.arity - 1 + width
        pieces, M, relabel = host_cells
        if relabel is not None:
            step, top, at = dim * low, wide * low, relabel[low]
            A, N = self._phases()
            if relabel.one:
                moved = {p: ({k // step * top + at[k % step // low] + k % low: n for k, n in nums.items()}, d)
                         for p, (nums, d) in A.items()}
                return LegTensor._of_rows(self.host, arity, moved, N)
            ones = self.host._ones
            size = dim ** self.arity if relabel.full else -1
            moved = {}
            for p, (nums, d) in A.items():
                if len(nums) == size and (nums is ones[self.arity] or nums == ones[self.arity]):
                    moved[p] = ones[arity], d
                    continue
                moved[p] = {
                    h + o: n
                    for k, n in nums.items()
                    for h in (k // step * top + k % low,)
                    for o in at[k % step // low]
                }, d
            return LegTensor._of_rows(self.host, arity, moved, N)

        def kernel(a, cells, acc, f):
            out = {} if acc is None else acc
            dense = type(out) is list
            get = out.get if not dense else None
            for key, x in a.items():
                head, tail = divmod(key, low)
                head, d = divmod(head, dim)
                base = head * wide * low + tail
                if f != 1:
                    x *= f
                if dense:
                    for code, w in cells[d]:
                        out[base + code * low] += x * w
                    continue
                for code, w in cells[d]:
                    nk = base + code * low
                    out[nk] = get(nk, 0) + x * w
            return out

        return self._product(pieces, M, kernel, arity)

    def __repr__(self):
        return "LegTensor(%s, arity=%d, %d terms)" % (
            getattr(self.host, "name", "host"),
            self.arity,
            self.term_count(),
        )


def tensor_invert(t):
    """Two-sided inverse of a tensor in host^(tensor arity).

    Exact rings: left-regular-representation solve.  Series rings: solve at
    hbar-order 0, then lift by a geometric series.
    """
    host = t.host
    ring = host.ring
    unit = LegTensor.unit(host, t.arity)
    if not ring.is_series:
        return _invert_exact(t, unit)
    K = ring.hbar_order
    rows, N = t._phases()
    rows0 = {p: r for p, r in rows.items() if p[0] == 0}
    if any(tau for _v, tau, _e in rows0):
        raise NotInvertible("order-0 part involves tau")
    host0 = host.order0_host()
    N0 = N if any(e for _v, _t, e in rows0) else 1
    t0 = LegTensor._of_rows(host0, t.arity, rows0, N0)
    unit0 = LegTensor.unit(host0, t.arity)
    if t0.eq(unit0):
        x0 = unit
    else:
        x0 = LegTensor._of_rows(host, t.arity, *_invert_exact(t0, unit0)._phases())
    # geometric lift: s = unit - t*x0 has positive hbar valuation
    s = unit.sub(t.mul(x0))
    if any(v == 0 for v, _t, _e in s.rows()):
        raise NotInvertible("order-0 inverse did not cancel")
    acc = unit
    term = unit
    for _ in range(K):
        term = term.mul(s)
        if term.is_zero():
            break
        acc = acc.add(term)
    return x0.mul(acc)


def _invert_exact(t, unit):
    """The two-sided inverse of t over an exact ring: one
    scalars.solve_columns of the left regular representation, priced first
    from t's pieces and the table alone (refuse_costly: D x D at the lcm of
    the conductors of t, the unit and the table; the bits of t's top
    numerator and denominator plus the table's).  At conductor 1 and phase
    0 over a host with a piece_product kernel (rational_kernel), column j is
    t's numerators through that kernel times {j: 1}; otherwise it is the
    flat row of t * b_j, and the right side the unit's."""
    host = t.host
    arity = t.arity
    D = host.dim ** arity
    A, N = t._phases()
    U, M = unit._phases()
    table = host.phase_table()
    bits = table.top.bit_length() + (table.den - 1).bit_length() + max(
        (max(map(abs, n.values())).bit_length() + (d - 1).bit_length() for n, d in A.values()),
        default=1,
    )
    refuse_costly(D, D, lcm(N, M, table.N), bits)
    rational = N == M == 1 and set(A) | set(U) <= {_PHASE0}
    kernel = host.rational_kernel(arity) if rational else None
    if kernel is not None:
        nums, den = A.get(_PHASE0, ({}, 1))
        L = 1
        cols = [(kernel(nums, {j: 1}, None, 1), den) for j in range(D)]
        cols.append(U.get(_PHASE0, ({}, 1)))
    else:
        prods = [t.mul(LegTensor._of_rows(host, arity, {_PHASE0: ({j: 1}, 1)})) for j in range(D)]
        phases = [c._phases() for c in prods + [unit]]
        L = lcm(*[N for _rows, N in phases])
        rows = [pieces_row(pieces, n, L) for pieces, n in phases]
        cols = [({k * L + e: x for (k, _v, _t, e), x in nums.items()}, den) for nums, den in rows]
    sol = solve_columns(cols[:D], cols[D], D, L)
    if sol is None:
        raise NotInvertible("tensor has no inverse")
    flat = {(j, 0, 0, f): x for j, coords in enumerate(sol) for f, x in coords.items()}
    inv = LegTensor._of_rows(host, arity, *row_pieces(_numerators(flat), L))
    if not t.mul(inv).eq(unit) or not inv.mul(t).eq(unit):
        raise NotInvertible("one-sided inverse only")
    return inv


# ---------------------------------------------------------------------------
# the rows of elem_mul and apply_antipode
#
# A row is ((numerators, den), N): a flat phase row {(key, v, t, e):
# numerator} at conductor N with exponents below N, no zero numerator and
# gcd(den, numerators) = 1, or None for a value outside the window.  Equal
# rows at one conductor hold equal values; the exponents are not reduced
# below phi(N), so other rows are compared through their difference.  The
# axiom batteries (batteries) work on these rows too.


def _vec_row(vec):
    """The canonical row of a sparse vector (no zero), None for None."""
    if vec is None:
        return None
    row, N = phase_rows(vec)
    return (row if N == 1 else _row([row])), N


def _on_rows(kernel, rows, table, K, *args):
    """kernel(*numerator rows, *args, table, K, L), phase_convolve on two
    rows or phase_map on one, brought to one conductor L, the result
    canonical; None when a row is None or the kernel meets a cell outside
    the window."""
    if rows[0] is None or rows[-1] is None:
        return None
    L = table.N
    if all(M == L or M == 1 for _r, M in rows):
        parts = [r for r, _M in rows]
    else:
        L, parts = _align(rows, L)
    try:
        return _row([kernel(*parts, *args, table, K, L)]), L
    except WindowOverflow:
        return None


# ---------------------------------------------------------------------------
# finite groups


class FiniteGroup:
    """Multiplication-table group on indices 0..order-1.

    Tables only; order capped at 16 so every validation stays exhaustive.
    """

    def __init__(self, order, table, labels=None):
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

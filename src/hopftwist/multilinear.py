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

verify_algebra is the one algebra axiom battery: unit laws, associativity
or quasi-associativity x(yz) = sum Phi(x,y,z)_abc (ab)c, and the
module-algebra axioms of a ModuleAlgebra.  It forms the basis products once
through basis_mul and makes them into phase cells; every product a check
forms is one phase_convolve against those cells, on flat phase rows at one
conductor (the battery's rows).  A vector's row is scalars.phase_rows
and every row is made canonical by scalars._row, so the batteries have no
canonical form or rational fast path of their own.  Two rows are compared
as they are when their conductors agree, and otherwise, or when they
differ, through their difference with every exponent reduced below
phi(N): a row's exponents are kept below N, not below phi(N), so that a
product of roots stays one term.
A host tensor Phi acts through the module by act_tensor, tabulated once per
run.

verify_hopf is the one Hopf axiom battery; it shares verify_algebra's unit
and associativity checks.  It runs on any host that offers dim, labels,
ring, elem_unit(), a counit list, basis_mul(i, j) and basis_coproduct(i)
as sparse dicts, apply_antipode(vec), and axiom_ids, the check ids to run
in report order: HopfPresentation derives them from its antipode and its
tables (product_commutes, coproduct_cocommutes), the windowed hosts in
constructors (ShuffleBialgebra, PareigisWindow) state them as class data.
Both batteries are generators: each check is yielded once it is decided,
so a caller that times each yield times each axiom.  The
coproducts and the counit become phase cells too, and act on rows through
phase_map; the antipode images are rows.  A windowed host raises
WindowOverflow for a value outside its window: its cell is None, and the
instances that need it are skipped, not failed.

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
from .reporting import CheckOutcome
from .scalars import (
    ScalarRing,
    _RATIONAL,
    _accumulator,
    _nonzero,
    _numerators,
    _row,
    _settle,
    accumulate,
    phase_pieces,
    phase_rows,
    phase_values,
    piece_product,
    pieces_row,
    reduced_row,
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
        set (scalars._settle), the pieces that coproduct_pieces() builds
        from values, and its leg cells are made from them by the same
        builder.  The values (coproduct) are built only when read."""
        parts = [(i, *t._phases()) for i, t in tensors.items()]
        L = lcm(1, *[N for _i, _pieces, N in parts])
        groups = {}
        for i, pieces, N in parts:
            s = L // N
            for (v, t, e), (nums, den) in pieces.items():
                groups.setdefault((v, t, e * s), []).append(
                    ({(i, k): n for k, n in nums.items()}, den)
                )
        self._cop_flat = _settle(groups, L)
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

    def copy(self):
        return self.over(self.host)

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
        return self._add(other, True)

    def _add(self, other, negate):
        if other.host is not self.host or other.arity != self.arity:
            raise ArityMismatch("cannot add tensors of different shape")
        A, N = self._phases()
        B, M = other._phases()
        if negate:
            B = {p: ({k: -n for k, n in nums.items()}, d) for p, (nums, d) in B.items()}
        L = N if N == M else lcm(N, M)
        groups = {}
        for pieces, s in ((A, L // N), (B, L // M)):
            for (v, t, e), piece in pieces.items():
                p = (v, t, e * s)
                g = groups.get(p)
                if g is None:
                    groups[p] = [piece]
                else:
                    g.append(piece)
        return LegTensor._of_rows(self.host, self.arity, *_settle(groups, L))

    def neg(self):
        return self.scale(-1)

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


class ModuleAlgebra:
    """An algebra A with a left action of a Hopf presentation H.

    action[(i, j)] is the sparse image of basis_H[i] acting on basis_A[j].
    """

    def __init__(self, host, algebra, action):
        self.host = host
        self.algebra = algebra
        self.action = {}
        ring = algebra.ring
        for key, vec in action.items():
            vv = _clean({k: ring.coerce(v) for k, v in vec.items()})
            if vv:
                self.action[key] = vv

    def act(self, hvec, avec):
        out = {}
        for i, ch in hvec.items():
            for j, ca in avec.items():
                cell = self.action.get((i, j))
                if not cell:
                    continue
                c = ch * ca
                for k, w in cell.items():
                    accumulate(out, k, c * w)
        return out

    def act_tensor(self, ht):
        """The legwise action of a rank-n host tensor on every n-tuple of
        basis elements of A: {(j1, .., jn): {(k1, .., kn): scalar}}, tuples
        with a zero image left out.  Each key of ht is decoded once and
        meets only the action cells of its digits."""
        n = ht.arity
        dim = self.host.dim
        cells = [[] for _ in range(dim)]  # digit -> [(j, image of basis j)]
        for (i, j), vec in self.action.items():
            cells[i].append((j, vec))
        out = {}
        for key, c in ht.data.items():
            partial = [((), (), c)]
            for d in decode_key(key, dim, n):
                partial = [
                    (js + (j,), ks + (k,), cv * w)
                    for js, ks, cv in partial
                    for j, vec in cells[d]
                    for k, w in vec.items()
                ]
            for js, ks, cv in partial:
                accumulate(out.setdefault(js, {}), ks, cv)
        return {js: image for js, image in out.items() if image}


# ---------------------------------------------------------------------------
# algebra and Hopf axiom verification


def verify_algebra(algebra, associator=None, module=None):
    """Exhaustive unit and associativity checks for an algebra on a finite
    basis, and the module-algebra axioms when a ModuleAlgebra acting on it
    is given, each CheckOutcome yielded once it is decided.

    Without an associator the law is x(yz) = (xy)z.  With one it is
    x(yz) = sum Phi(x,y,z)_abc (ab)c: Phi is a scalar table {(i, j, k):
    phi} on every basis triple (its diagonal), or a host LegTensor of
    arity 3 acting legwise through the module, tabulated once.  Residuals
    count the failing instances; witnesses name them by label."""
    run = _AlgebraBattery(algebra, associator, module)
    ids = ["unit-laws", "associativity" if associator is None else "quasi-associativity"]
    if module is not None:
        ids += ["module-unit", "module-action", "module-algebra-unit", "module-algebra-mult"]
    for cid in ids:
        yield getattr(run, cid.replace("-", "_") + "_check")()


def verify_hopf(host):
    """Exhaustive axiom checks for a Hopf algebra or bialgebra on a finite
    basis, one CheckOutcome per id of host.axiom_ids, each yielded once it
    is decided.  Residuals count the failing instances; coassociativity
    counts residual terms."""
    run = _Battery(host)
    for cid in host.axiom_ids:
        yield getattr(run, cid.replace("-", "_") + "_check")()


def _within(f, *args):
    """f(*args), or None when the value leaves the host's window."""
    try:
        return f(*args)
    except WindowOverflow:
        return None


# ---------------------------------------------------------------------------
# the batteries' rows
#
# A row is ((numerators, den), N): a flat phase row {(key, v, t, e):
# numerator} at conductor N with exponents below N, no zero numerator and
# gcd(den, numerators) = 1, or None for a value outside the window.  Equal
# rows at one conductor hold equal values; the exponents are not reduced
# below phi(N), so other rows are compared through their difference.

_ONE = (({(0, 0, 0, 0): 1}, 1), 1)
_ZERO = (({}, 1), 1)


def _vec_row(vec):
    """The canonical row of a sparse vector (no zero), None for None."""
    if vec is None:
        return None
    row, N = phase_rows(vec)
    return (row if N == 1 else _row([row])), N


def _cell_rows(table):
    """The row of each cell of a PhaseCells table."""
    den, N = table.den, table.N
    return [
        None if c is None
        else (_row([({(k, v, t, e): x for k, (v, t, e), x in c}, den)]), N)
        for c in table.cells
    ]


def _align(rows, N=1):
    """(L, numerator rows): rows at L, the lcm of N and their conductors; a
    rational row (N = 1) needs no scaling."""
    L = lcm(N, *[M for _r, M in rows])
    return L, [
        r if M == L or M == 1
        else ({(k, v, t, e * (L // M)): n for (k, v, t, e), n in r[0].items()}, r[1])
        for r, M in rows
    ]


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


def _outer(a, b, size, K):
    """a (x) b for rows, b's keys below size: key ka * size + kb, phases
    added.  A row at the one key 0 is a scalar, so _outer(a, c, 1, K) is a
    times the scalar c."""
    if a is None or b is None:
        return None
    L, (ra, rb) = _align([a, b])
    out = {}
    for (ka, va, ta, ea), x in ra[0].items():
        for (kb, vb, tb, eb), y in rb[0].items():
            if va + vb <= K:
                idx = (ka * size + kb, va + vb, ta + tb, (ea + eb) % L)
                out[idx] = out.get(idx, 0) + x * y
    return _row([(out, ra[1] * rb[1])]), L


def _sum(rows):
    """The sum of rows; None when one of them is None."""
    if any(r is None for r in rows):
        return None
    if len(rows) == 1:
        return rows[0]
    L, parts = _align(rows)
    return _row(parts), L


def _residual(got, want):
    """The numerators of got - want, each exponent reduced below phi
    (scalars.reduced_row): empty exactly when the two rows hold equal
    values."""
    L, ((gn, gd), (wn, wd)) = _align([got, want])
    den = lcm(gd, wd)
    diff = {k: n * (den // gd) for k, n in gn.items()}
    f = den // wd
    for k, n in wn.items():
        diff[k] = diff.get(k, 0) - n * f
    return reduced_row(diff, L)


def _regular(table, dim, side):
    """The left (side 0) or right (side 1) regular representation of a
    product table: PhaseCells whose cell m lists the cells of x_i x_m
    (left) or x_m x_i (right) for every basis i, the product's keys coded
    i * dim + k, and over[m], the set of i whose product leaves the
    window."""
    cells = table.cells
    out, over = [], []
    for m in range(dim):
        cell, off = [], set()
        for i in range(dim):
            c = cells[i * dim + m] if side == 0 else cells[m * dim + i]
            if c is None:
                off.add(i)
            else:
                cell.extend((i * dim + k, p, w) for k, p, w in c)
        out.append(tuple(cell))
        over.append(off)
    return PhaseCells(out, table.den, table.N), over


def _by_basis(row, regular, dim, K):
    """x_i row (left) or row x_i (right) for every basis i at once, one
    phase_map of row through the regular representation (see _regular):
    ({i: row of the product}, the set of i whose product leaves the
    window)."""
    table, over = regular
    (nums, den), N = _on_rows(phase_map, (row,), table, K, dim, 1, 0, 2)
    parts = {}
    for (key, v, t, e), n in nums.items():
        i, k = divmod(key, dim)
        part = parts.get(i)
        if part is None:
            parts[i] = {(k, v, t, e): n}
        else:
            part[k, v, t, e] = n
    off = set().union(*[over[key] for key, _v, _t, _e in row[0][0]])
    # a part of a canonical row over 1 is canonical as it is
    return {
        i: ((part, 1) if den == 1 else _row([(part, den)]), N)
        for i, part in parts.items()
    }, off


def _differ(got, want):
    """got != want for rows; None, a value outside the window, differs from
    nothing.  Equal rows at one conductor, or with one of them rational,
    are equal; otherwise the difference decides (_residual)."""
    if got is None or want is None:
        return False
    if got[0] == want[0] and (got[1] == want[1] or got[1] == 1 or want[1] == 1):
        return False
    return bool(_residual(got, want))


class _AlgebraBattery:
    """One verify_algebra run, on rows.  The basis products are formed once
    through host.basis_mul (None where one leaves the window) and made into
    integer phase cells (phase_cells) and rows; every product a check forms
    is one phase_convolve against those cells, or for x(yz) and (xy)z one
    phase_map through the regular representation (_by_basis).  The
    associator is {basis triple: [(a * dim + b, row of Phi_abc c)]}.  One
    method <id>_check per check id; the module checks act through
    ModuleAlgebra.act on values."""

    def __init__(self, host, associator=None, module=None):
        self.host = host
        self.dim = dim = host.dim
        self.one = host.ring.one()
        self.K = host.ring.hbar_order or 0
        self.unit = host.elem_unit()
        self.unit_row = _vec_row(self.unit)
        self.prods = [
            _within(host.basis_mul, i, j) for i in range(dim) for j in range(dim)
        ]
        self.table = phase_cells(self.prods)
        self.rows = _cell_rows(self.table)
        self.basis = [(({(i, 0, 0, 0): 1}, 1), 1) for i in range(dim)]
        phi = associator
        if isinstance(associator, LegTensor):
            phi = module.act_tensor(associator)
        elif associator is not None:
            phi = {t: {t: v} for t, v in associator.items()}
        if phi is not None:
            phi = {
                t: [(a * dim + b, _vec_row({c: w})) for (a, b, c), w in image.items()]
                for t, image in phi.items()
            }
        self.phi = phi
        self.module = module

    def at(self, *idx):
        """Witness naming basis elements by label: "x" or "(x,y,...)"."""
        labels = [self.host.labels[i] for i in idx]
        return labels[0] if len(labels) == 1 else "(%s)" % ",".join(labels)

    def mul(self, a, b, arity=1):
        """a * b for rows in host^(tensor arity); None when a or b is None
        or a product it needs lies outside the window."""
        return _on_rows(phase_convolve, (a, b), self.table, self.K, self.dim, arity)

    def mapped(self, a, table, arity, leg, width):
        """phase_map of the row a over the cells table; None when a is None
        or a cell it meets lies outside the window."""
        return _on_rows(phase_map, (a,), table, self.K, self.dim, arity, leg, width)

    # -- the checks

    def unit_laws_check(self):
        u = self.unit_row
        return CheckOutcome.tally("unit-laws", (
            (1, self.at(i)) for i, x in enumerate(self.basis)
            if _differ(self.mul(u, x), x) or _differ(self.mul(x, u), x)
        ))

    def associativity_check(self):
        """x(yz) against (xy)z, or against sum Phi(x,y,z)_abc (ab)c.  Each
        yz times every x, and each xy times every z, is one _by_basis; y
        runs outermost, so that only the products of one y are kept, and
        the failing triples are tallied sorted, so that the witness is the
        least one."""
        dim, phi, rows, K = self.dim, self.phi, self.rows, self.K
        left = _regular(self.table, dim, 0)
        right = _regular(self.table, dim, 1) if phi is None else None

        def failures():
            for j in range(dim):
                lefts = [
                    None if yz is None else _by_basis(yz, left, dim, K)
                    for yz in rows[j * dim:(j + 1) * dim]
                ]
                for i in range(dim):
                    ij = rows[i * dim + j]
                    if ij is None:
                        continue
                    if phi is None:
                        rights, roff = _by_basis(ij, right, dim, K)
                    for k, got in enumerate(lefts):
                        if got is None or i in got[1]:
                            continue
                        lhs = got[0].get(i, _ZERO)
                        if phi is not None:
                            terms = phi.get((i, j, k), ())
                            rhs = _sum([self.mul(rows[ab], wc) for ab, wc in terms])
                        elif k in roff:
                            rhs = None
                        else:
                            rhs = rights.get(k, _ZERO)
                        if _differ(lhs, rhs):
                            yield i, j, k

        cid = "associativity" if phi is None else "quasi-associativity"
        return CheckOutcome.tally(cid, ((1, self.at(*t)) for t in sorted(failures())))

    quasi_associativity_check = associativity_check

    def module_unit_check(self):
        M = self.module
        unit = M.host.elem_unit()
        basis = [{j: self.one} for j in range(self.dim)]
        return CheckOutcome.tally("module-unit", (
            (1, self.at(j)) for j, x in enumerate(basis) if M.act(unit, x) != x
        ))

    def module_action_check(self):
        """(hk).x = h.(k.x) on basis elements."""
        M = self.module
        H = M.host

        def failures():
            for i in range(H.dim):
                hi = {i: self.one}
                for k in range(H.dim):
                    hk = H.basis_mul(i, k)
                    for j in range(self.dim):
                        x = {j: self.one}
                        if M.act(hk, x) != M.act(hi, M.act({k: self.one}, x)):
                            yield 1, "(%s,%s,%s)" % (
                                H.labels[i], H.labels[k], self.host.labels[j]
                            )

        return CheckOutcome.tally("module-action", failures())

    def module_algebra_unit_check(self):
        """h.1 = counit(h) 1."""
        M = self.module
        H = M.host
        return CheckOutcome.tally("module-algebra-unit", (
            (1, H.labels[i]) for i in range(H.dim)
            if _differ(
                _vec_row(M.act({i: self.one}, self.unit)),
                _outer(self.unit_row, _vec_row({0: H.counit[i]}), 1, self.K),
            )
        ))

    def module_algebra_mult_check(self):
        """h.(xy) = sum (h1.x)(h2.y) over Delta(h) = sum h1 (x) h2."""
        M = self.module
        H = M.host
        one, dim, K = self.one, self.dim, self.K
        image = {
            (h, a): _vec_row(M.action.get((h, a), {}))
            for h in range(H.dim)
            for a in range(dim)
        }

        def failures():
            for i in range(H.dim):
                cop = [
                    (h1, h2, _vec_row({0: w}))
                    for (h1, h2), w in H.basis_coproduct(i).items()
                ]
                for a in range(dim):
                    for b in range(dim):
                        lhs = _vec_row(M.act({i: one}, self.prods[a * dim + b]))
                        prods = [
                            (self.mul(image[h1, a], image[h2, b]), w) for h1, h2, w in cop
                        ]
                        rhs = _sum([p if w == _ONE else _outer(p, w, 1, K) for p, w in prods])
                        if _differ(lhs, rhs):
                            yield 1, "(%s;%s,%s)" % (
                                H.labels[i], self.host.labels[a], self.host.labels[b]
                            )

        return CheckOutcome.tally("module-algebra-mult", failures())


class _Battery(_AlgebraBattery):
    """One verify_hopf run, on rows: the algebra battery's cells and rows,
    and the host's coproducts (codes a * dim + b) and counit as phase cells
    and rows, and its antipode images as rows, each formed once through the
    host, None where it leaves the window.  The coproduct and the counit
    act on rows through phase_map over their cells, products in host (x)
    host through phase_convolve; the antipode acts through
    host.apply_antipode on values.  No check multiplies values.  One
    method <id>_check per check id."""

    def __init__(self, host):
        super().__init__(host)
        dim = self.dim
        cops = [_within(host.basis_coproduct, i) for i in range(dim)]
        self.cop = phase_cells([
            None if cell is None else {a * dim + b: w for (a, b), w in cell.items()}
            for cell in cops
        ])
        self.cops = _cell_rows(self.cop)
        self.eps = phase_cells([{0: e} if e else {} for e in host.counit])
        self.counits = _cell_rows(self.eps)
        try:
            self.images = [self.antipode({i: self.one}) for i in range(dim)]
        except ValueError:  # a bialgebra, given without antipode
            self.images = None
        else:
            self.srows = [_vec_row(s) for s in self.images]

    def coproduct(self, a):
        """Delta(a) for a row, keys a * dim + b, None outside the window."""
        return self.mapped(a, self.cop, 1, 0, 2)

    def counit_of(self, a):
        return self.mapped(a, self.eps, 1, 0, 0)

    def antipode(self, vec):
        """S(vec) for values, through the host; None outside the window."""
        return None if vec is None else _within(self.host.apply_antipode, vec)

    # -- the checks

    def commutativity_check(self):
        dim, rows = self.dim, self.rows
        return CheckOutcome.tally("commutativity", (
            (1, self.at(i, j)) for i in range(dim) for j in range(dim)
            if _differ(rows[i * dim + j], rows[j * dim + i])
        ))

    def coassociativity_check(self):
        """(Delta (x) id) Delta(i) - (id (x) Delta) Delta(i); the residual
        counts its terms."""

        def failures():
            for i, d in enumerate(self.cops):
                left = self.mapped(d, self.cop, 2, 0, 2)
                right = self.mapped(d, self.cop, 2, 1, 2)
                if left is None or right is None:
                    continue
                res = _residual(left, right)
                if res:
                    yield len({key for key, _v, _t, _e in res}), self.at(i)

        return CheckOutcome.tally("coassociativity", failures())

    def counit_laws_check(self):
        return CheckOutcome.tally("counit-laws", (
            (1, self.at(i)) for i, (d, x) in enumerate(zip(self.cops, self.basis))
            if d is not None and (
                _differ(self.mapped(d, self.eps, 2, 0, 0), x)
                or _differ(self.mapped(d, self.eps, 2, 1, 0), x)
            )
        ))

    def coproduct_morphism_check(self):
        dim, unit, cops = self.dim, self.unit_row, self.cops

        def failures():
            if _differ(self.coproduct(unit), _outer(unit, unit, dim, self.K)):
                yield 1, "coproduct(1)"
            for i in range(dim):
                for j in range(dim):
                    lhs = self.mul(cops[i], cops[j], 2)
                    if _differ(lhs, self.coproduct(self.rows[i * dim + j])):
                        yield 1, self.at(i, j)

        return CheckOutcome.tally("coproduct-morphism", failures())

    def counit_morphism_check(self):
        dim, e, K = self.dim, self.counits, self.K

        def failures():
            if _differ(self.counit_of(self.unit_row), _ONE):
                yield 1, "counit(1)"
            for i in range(dim):
                for j in range(dim):
                    got = self.counit_of(self.rows[i * dim + j])
                    if _differ(got, _outer(e[i], e[j], 1, K)):
                        yield 1, self.at(i, j)

        return CheckOutcome.tally("counit-morphism", failures())

    def antipode_convolution_check(self):
        """id * S = S * id = unit.counit, one instance per (basis element,
        side)."""
        if self.images is None:
            return CheckOutcome.error("antipode-convolution", "no antipode given")
        S, basis = self.srows, self.basis
        dim, K = self.dim, self.K

        def failures():
            for b, d in enumerate(self.cops):
                if d is None:
                    continue
                want = _outer(self.unit_row, self.counits[b], 1, K)
                # the coefficient of each key x * dim + y of Delta(b), a scalar row
                coeffs = {}
                for (key, v, t, e), n in d[0][0].items():
                    coeffs.setdefault(key, {})[0, v, t, e] = n
                coeffs = [
                    (divmod(key, dim), ((c, d[0][1]), d[1])) for key, c in coeffs.items()
                ]
                id_s = [self.mul(_outer(c, basis[x], dim, K), S[y]) for (x, y), c in coeffs]
                if _differ(_sum(id_s), want):
                    yield 1, "id*S at %s" % self.at(b)
                s_id = [self.mul(S[x], _outer(c, basis[y], dim, K)) for (x, y), c in coeffs]
                if _differ(_sum(s_id), want):
                    yield 1, "S*id at %s" % self.at(b)

        return CheckOutcome.tally("antipode-convolution", failures())

    def antipode_unit_check(self):
        got = _vec_row(self.antipode(self.unit))
        bad = 1 if _differ(got, self.unit_row) else 0
        return CheckOutcome.from_residual("antipode-unit", bad, "S(1)")

    def antipode_antihomomorphism_check(self):
        S, dim = self.srows, self.dim
        return CheckOutcome.tally("antipode-antihomomorphism", (
            (1, self.at(i, j)) for i in range(dim) for j in range(dim)
            if _differ(_vec_row(self.antipode(self.prods[i * dim + j])), self.mul(S[j], S[i]))
        ))

    def antipode_square_check(self):
        return CheckOutcome.tally("antipode-square", (
            (1, self.at(i)) for i, s in enumerate(self.images)
            if _differ(_vec_row(self.antipode(s)), self.basis[i])
        ))


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

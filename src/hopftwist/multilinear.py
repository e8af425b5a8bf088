"""Finite-dimensional algebra/coalgebra/Hopf presentations and the sparse
leg-indexed tensors their cochains live in.

Conventions:
  * basis indices are 0-based everywhere, including JSON;
  * vectors are sparse dicts {index: scalar} with no stored zeros;
  * linear maps (antipode, module actions) are dense row lists, row i being
    the image of basis i;
  * multiplication and coproduct tables are sparse;
  * tensor legs are 0-based, leftmost leg most significant in flat keys.

LegTensor.mul has two paths.  The integer path takes every product whose
values are rational and tau-free over a host with an integer structure
table (host.rational_table(); every group algebra, its twists by a rational
cocycle, and the dual hosts).  Each operand becomes integer numerators over
one common denominator (the lcm of its coefficients' denominators, as in
FLINT's fmpq_poly), one such pair per hbar degree over a series ring.  On a
pointwise host with unit coefficients (a dual host) the product of two pairs
is the key intersection of their numerators; otherwise ``rational_convolve``
convolves them once against the integer table, whose coefficients share one
denominator D, and divides by the two operand denominators and D**arity.
Every output Fraction, or Series built from its degree pieces, is normalized
once, instead of once per scalar product and sum.  The generic path is one
``tensor_convolve`` over the values themselves: Cyclotomic values or
structure constants, tau-carrying series, series structure constants other
than 1.  coproduct_leg over a twisted series host takes integers degree by
degree too.

Over a group algebra k[G], k[G]^(tensor n) = k[G^n]: the product of two
basis keys is one basis key with coefficient 1.  A host detects such a
permutation table once (every cell exactly one (k, None); its integer
rational_table() is one too) and hands tensor_convolve a cache of
key-product rows.  The legs are split into blocks of at most two, a one-leg
block first when the arity is odd; the row of a block value x is a flat list
mapping each block value y to stride * key(x*y), so a product key is
row[kb] at arity 1 or 2 and r0[y0] + r1[y1] at arity 3 or 4; arity 5 and
up keep the per-leg loop.  Rows are built lazily, one for each block value
met, and kept on the host.
"""

from fractions import Fraction
from math import lcm

from . import linalg
from .errors import (
    ArityMismatch,
    BadLeg,
    BadPositions,
    NotInvertible,
)
from .reporting import CheckOutcome
from .scalars import ScalarRing, Series


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


def tensor_convolve(a, b, dim, arity, base):
    """Multiply two sparse tensors over an algebra given by structure cells.

    a, b map flat indices (base-dim digits, leftmost leg most significant) to
    scalar coefficients.  base[i*dim + j] is a tuple of (k, coeff) pairs for
    the product of basis i with basis j; coeff None means 1 and skips a
    multiplication.  Returns a dict with exact zeros dropped.

    When base is a permutation table (a _Cells whose rows are set) and the
    arity is at most 4, each pair of keys gives one key with coefficient 1,
    read from key-product rows: the legs are split into one or two blocks
    of at most two legs, and a row of a block value x maps every block
    value y to stride * key(x*y).  Otherwise the cells are expanded leg by
    leg.  The b keys are decoded once.
    """
    out = {}
    get = out.get
    rows = getattr(base, "rows", None)
    if rows is not None and arity <= 2:
        # one block: the row of ka maps kb to key(ka*kb)
        cache = rows.setdefault((arity, 1), {})
        for ka, va in a.items():
            row = cache.get(ka)
            if row is None:
                row = cache[ka] = _key_row(base, dim, arity, 1, ka)
            for kb, vb in b.items():
                idx = row[kb]
                r = get(idx, 0) + va * vb
                if r:
                    out[idx] = r
                else:
                    out.pop(idx, None)
        return out
    if rows is not None and arity <= 4:
        # a block of arity - 2 legs over a block of the two last legs
        s0 = dim * dim
        c0 = rows.setdefault((arity - 2, s0), {})
        c1 = rows.setdefault((2, 1), {})
        bd = [divmod(kb, s0) + (vb,) for kb, vb in b.items()]
        for ka, va in a.items():
            x0, x1 = divmod(ka, s0)
            r0 = c0.get(x0)
            if r0 is None:
                r0 = c0[x0] = _key_row(base, dim, arity - 2, s0, x0)
            r1 = c1.get(x1)
            if r1 is None:
                r1 = c1[x1] = _key_row(base, dim, 2, 1, x1)
            for y0, y1, vb in bd:
                idx = r0[y0] + r1[y1]
                r = get(idx, 0) + va * vb
                if r:
                    out[idx] = r
                else:
                    out.pop(idx, None)
        return out
    if arity == 1:
        for ka, va in a.items():
            row = ka * dim
            for kb, vb in b.items():
                c = va * vb
                for k, w in base[row + kb]:
                    v = c if w is None else c * w
                    r = get(k, 0) + v
                    if r:
                        out[k] = r
                    else:
                        out.pop(k, None)
        return out
    strides = [dim ** (arity - 1 - t) for t in range(arity)]
    legs = list(enumerate(strides))
    bd = []
    for kb, vb in b.items():
        db = []
        r = kb
        for s in strides:
            db.append(r // s)
            r %= s
        bd.append((db, vb))
    for ka, va in a.items():
        da = []
        r = ka
        for s in strides:
            da.append((r // s) * dim)
            r %= s
        for db, vb in bd:
            partial = [(0, va * vb)]
            for t, st in legs:
                cell = base[da[t] + db[t]]
                if not cell:
                    partial = []
                    break
                nxt = []
                for acc, cv in partial:
                    for k, w in cell:
                        nxt.append((acc + k * st, cv if w is None else cv * w))
                partial = nxt
            for idx, cv in partial:
                r = get(idx, 0) + cv
                if r:
                    out[idx] = r
                else:
                    out.pop(idx, None)
    return out


class _Cells(list):
    """Structure cells as tensor_convolve reads them.

    rows is the host's cache of key-product rows when the table is a
    permutation table (every cell exactly one (k, None)), else None.  The
    cache maps a block shape (width in legs, stride) to {block value: row}
    and gets one row for each block value met, so that a host built only
    to be checked once pays only for the products it forms.  A host's
    base and integer tables share one cache: their cells have the same keys.
    """

    __slots__ = ("rows",)

    def __init__(self, cells, rows):
        super().__init__(cells)
        self.rows = rows


def _key_row(base, dim, width, stride, x):
    """The row of block value x: stride * key(x*y) for each block value y
    of a one- or two-leg block, over a permutation table."""
    if width == 1:
        return [cell[0][0] * stride for cell in base[x * dim:(x + 1) * dim]]
    x0, x1 = divmod(x, dim)
    low = [cell[0][0] for cell in base[x1 * dim:(x1 + 1) * dim]]
    return [
        (cell[0][0] * dim + k) * stride
        for cell in base[x0 * dim:(x0 + 1) * dim]
        for k in low
    ]


def _clean(d):
    return {k: v for k, v in d.items() if v}


def _accumulate(out, key, v):
    """out[key] += v, keeping no zero entries."""
    r = out.get(key)
    if r is None:
        if v:
            out[key] = v
    else:
        r = r + v
        if r:
            out[key] = r
        else:
            del out[key]


def _fills(cells, dim, n):
    """Every n-fold tensor product of (index, coeff) cells, as (flat key,
    coeff) pairs; coeff None means 1."""
    out = [(0, None)]
    for _ in range(n):
        out = [
            (key * dim + k, w if c is None else (c if w is None else c * w))
            for key, c in out
            for k, w in cells
        ]
    return out


# ---------------------------------------------------------------------------
# integer-numerator products


def _numerators(data):
    """(integer numerators, common denominator) of a dict of rational values,
    or None when some value is not rational."""
    try:
        den = lcm(*[v.denominator for v in data.values()])
    except AttributeError:
        return None
    if den == 1:
        return {k: v.numerator for k, v in data.items()}, 1
    return {k: v.numerator * (den // v.denominator) for k, v in data.items()}, den


def _pieces(data, K):
    """Integer pieces of a dict of values: [_numerators(data)] over an exact
    ring (K None), _series_numerators(data, K) over a series ring of order K.
    None when some value is not rational or carries tau."""
    if K is None:
        nd = _numerators(data)
        return None if nd is None else [nd]
    return _series_numerators(data, K)


def _series_numerators(data, K):
    """_numerators() of each hbar-degree piece of a dict of order-K series,
    or None when some coefficient carries tau or is not rational."""
    parts = [{} for _ in range(K + 1)]
    for k, s in data.items():
        for v, tl in enumerate(s.coeffs):
            terms = tl.terms
            if terms:
                q = terms.get(0)
                if q is None or len(terms) != 1:
                    return None
                parts[v][k] = q
    out = []
    for part in parts:
        nd = _numerators(part)
        if nd is None:
            return None
        out.append(nd)
    return out


def _sum_numerators(pieces):
    """Sum of (numerators, denominator) pairs over the lcm denominator."""
    den = lcm(*[d for _, d in pieces])
    out = {}
    for nums, d in pieces:
        f = den // d
        for k, n in nums.items():
            out[k] = out.get(k, 0) + (n if f == 1 else n * f)
    return {k: n for k, n in out.items() if n}, den


def _series_from_pieces(pieces, K):
    """{key: Series} from one list of (numerators, denominator) pairs per
    hbar degree 0..K; the pairs of one degree are summed."""
    cmaps = {}
    for v, piece in enumerate(pieces):
        if piece:
            for k, q in _fractions(*_sum_numerators(piece)).items():
                cmaps.setdefault(k, {})[v] = q
    return {k: Series(K, cmap) for k, cmap in cmaps.items()}


def _series_product(A, B, K, product):
    """{key: Series} from two _series_numerators() lists: product() of
    hbar degree v of A and degree w of B, for each v + w <= K."""
    pieces = [[] for _ in range(K + 1)]
    for v in range(K + 1):
        if not A[v][0]:
            continue
        for w in range(K + 1 - v):
            if B[w][0]:
                pieces[v + w].append(product(A[v], B[w]))
    return _series_from_pieces(pieces, K)


def _common_keys(a, b):
    """Pointwise product of two (numerators, denominator) pairs."""
    nb = b[0]
    return {k: n * nb[k] for k, n in a[0].items() if k in nb}, a[1] * b[1]


def _fractions(nums, den):
    if den == 1:
        return {k: Fraction(n) for k, n in nums.items()}
    return {k: Fraction(n, den) for k, n in nums.items()}


def rational_convolve(host, arity, a, b):
    """Product of two rational tensors of the given arity over host.

    a and b are (integer numerators, denominator) pairs as made by
    _numerators().  The numerators are convolved once, in integers, against
    host.rational_table(); the product's denominator is a's times b's times
    the table's denominator to the power arity, one factor per leg.
    Returns the product as such a pair, exact zeros dropped.
    """
    tbl, tden = host.rational_table()
    nums = tensor_convolve(a[0], b[0], host.dim, arity, tbl)
    return nums, a[1] * b[1] * tden ** arity


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
        self._base = None
        self._rational = 0
        self._rows = {}
        self._unit_support = None
        self._unit_cells = None
        self._pw = 0
        self._ucoef = None

    def basis_mul(self, i, j):
        return self.mult.get((i, j), {})

    def base_table(self):
        """Structure cells for the kernel: tuple per (i, j), coeff None = 1."""
        if self._base is None:
            one = self.ring.one()
            tbl = []
            for i in range(self.dim):
                for j in range(self.dim):
                    cell = self.mult.get((i, j), {})
                    tbl.append(
                        tuple(
                            (k, None if v == one else v)
                            for k, v in sorted(cell.items())
                        )
                    )
            self._ucoef = all(c is None for cell in tbl for _k, c in cell)
            perm = self._ucoef and all(len(cell) == 1 for cell in tbl)
            self._base = _Cells(tbl, self._rows if perm else None)
        return self._base

    def rational_table(self):
        """base_table() over integers: (cells, D), each coefficient an
        integer numerator over the common denominator D, None for the
        numerator 1.  None when some structure coefficient is not rational."""
        if self._rational == 0:
            cells = self.base_table()
            try:
                den = lcm(
                    *[w.denominator for cell in cells for _k, w in cell if w is not None]
                )
            except AttributeError:
                self._rational = None
                return None
            tbl = []
            for cell in cells:
                row = []
                for k, w in cell:
                    n = den if w is None else w.numerator * (den // w.denominator)
                    row.append((k, None if n == 1 else n))
                tbl.append(tuple(row))
            self._rational = (_Cells(tbl, cells.rows), den)
        return self._rational

    def unit_support(self):
        if self._unit_support is None:
            self._unit_support = tuple(
                (k, v) for k, v in enumerate(self.unit) if v
            )
        return self._unit_support

    def unit_cells(self):
        """unit_support() with coefficients equal to 1 replaced by None."""
        if self._unit_cells is None:
            one = self.ring.one()
            self._unit_cells = tuple(
                (k, None if v == one else v) for k, v in self.unit_support()
            )
        return self._unit_cells

    def elem_unit(self):
        return {k: v for k, v in self.unit_support()}

    def elem_mul(self, u, v):
        return tensor_convolve(u, v, self.dim, 1, self.base_table())

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

    def unit_coeff_table(self):
        """True when every structure coefficient equals 1."""
        self.base_table()
        return self._ucoef



class AlgebraPresentation(_MulOps):
    """Finite-dimensional algebra with an optional scalar associator.

    assoc_flag is one of "associative", "quasi", "unchecked".  For "quasi"
    the associator maps basis triples to nonzero scalars phi with
    a*(b*c) = phi(a,b,c) * (a*b)*c.
    """

    def __init__(
        self,
        dim,
        labels,
        ring,
        mult,
        unit,
        assoc_flag="unchecked",
        associator=None,
    ):
        self._init_mul(dim, labels, ring, mult, unit)
        if assoc_flag not in ("associative", "quasi", "unchecked"):
            raise ValueError("bad assoc_flag %r" % (assoc_flag,))
        self.assoc_flag = assoc_flag
        self.associator = associator

    def check_unit_laws(self):
        bad = 0
        witness = None
        for i in range(self.dim):
            target = {i: self.ring.one()}
            left = self.elem_mul(self.elem_unit(), target)
            right = self.elem_mul(target, self.elem_unit())
            for got in (left, right):
                if got != target:
                    bad += 1
                    witness = witness or self.labels[i]
        return CheckOutcome.from_residual("unit-laws", bad, witness)

    def check_associativity(self):
        bad = 0
        witness = None
        one = self.ring.one()
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.basis_mul(i, j)
                for k in range(self.dim):
                    jk = self.basis_mul(j, k)
                    lhs = self.elem_mul({i: one}, jk)
                    rhs = self.elem_mul(ij, {k: one})
                    if self.assoc_flag == "quasi":
                        phi = self.associator.get((i, j, k), one)
                        rhs = {t: phi * v for t, v in rhs.items()}
                    if lhs != rhs:
                        bad += 1
                        if witness is None:
                            witness = "(%s,%s,%s)" % (
                                self.labels[i],
                                self.labels[j],
                                self.labels[k],
                            )
        cid = (
            "quasi-associativity"
            if self.assoc_flag == "quasi"
            else "associativity"
        )
        return CheckOutcome.from_residual(cid, bad, witness)


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
        commutative=False,
        cocommutative=False,
        name=None,
    ):
        self._init_mul(dim, labels, ring, mult, unit)
        self.coproduct = {}
        for i, cell in coproduct.items():
            cc = _clean({jk: ring.coerce(v) for jk, v in cell.items()})
            if cc:
                self.coproduct[i] = cc
        self.counit = [ring.coerce(v) for v in counit]
        self.antipode = None
        if antipode is not None:
            self.antipode = [
                [ring.coerce(v) for v in row] for row in antipode
            ]
        self.commutative = commutative
        self.cocommutative = cocommutative
        self.name = name or "hopf-%d" % dim
        self._order0 = None
        self._leg_cells = None
        self._cop_pieces = 0

    # -- coalgebra helpers

    def basis_coproduct(self, i):
        return self.coproduct.get(i, {})

    def leg_cells(self):
        """(coproduct cells, counit cells) per basis index for the leg
        calculus: tuples of (j, k, w) and of w, coefficient None = 1 and
        zeros left out."""
        if self._leg_cells is None:
            one = self.ring.one()
            cop = [
                tuple(
                    (j, k, None if w == one else w)
                    for (j, k), w in self.basis_coproduct(i).items()
                )
                for i in range(self.dim)
            ]
            cou = [
                (None,) if e == one else ((e,) if e else ())
                for e in self.counit
            ]
            self._leg_cells = (cop, cou)
        return self._leg_cells

    def coproduct_pieces(self):
        """Coproduct cells of a series ring split by hbar degree, over
        integers: one (cells, D) per degree 0..K, cells[i] a list of
        (j, k, numerator) over the common denominator D.  None when some
        coefficient carries tau or is not rational, and when every
        coefficient is 1, where leg_cells() needs no multiplication."""
        if self._cop_pieces == 0:
            self._cop_pieces = None
            K = self.ring.hbar_order
            if K is not None and any(
                w is not None for cell in self.leg_cells()[0] for _j, _k, w in cell
            ):
                flat = {
                    (i, j, k): w
                    for i, cell in self.coproduct.items()
                    for (j, k), w in cell.items()
                }
                parts = _series_numerators(flat, K)
                if parts is not None:
                    self._cop_pieces = []
                    for nums, den in parts:
                        cells = [[] for _ in range(self.dim)]
                        for (i, j, k), n in nums.items():
                            cells[i].append((j, k, n))
                        self._cop_pieces.append((cells, den))
        return self._cop_pieces

    def elem_coproduct(self, u):
        """Coproduct of a sparse vector as a sparse rank-2 dict {(j,k): c}."""
        out = {}
        for i, c in u.items():
            for (j, k), w in self.basis_coproduct(i).items():
                r = out.get((j, k), 0) + c * w
                if r:
                    out[(j, k)] = r
                else:
                    out.pop((j, k), None)
        return out

    def elem_counit(self, u):
        acc = self.ring.zero()
        for i, c in u.items():
            if self.counit[i]:
                acc = acc + c * self.counit[i]
        return acc

    def apply_antipode(self, u):
        if self.antipode is None:
            raise ValueError("presentation has no antipode")
        out = {}
        for i, c in u.items():
            row = self.antipode[i]
            for j, w in enumerate(row):
                if w:
                    r = out.get(j, 0) + c * w
                    if r:
                        out[j] = r
                    else:
                        out.pop(j, None)
        return out

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
                commutative=self.commutative,
                cocommutative=self.cocommutative,
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
        commutative=host.commutative,
        cocommutative=host.cocommutative,
        name=host.name + "-h%d" % order,
    )


class LegTensor:
    """Sparse element of host^(tensor arity)."""

    __slots__ = ("host", "arity", "data")

    def __init__(self, host, arity, entries, _checked=False):
        self.host = host
        self.arity = arity
        if _checked:
            self.data = entries
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
            v = host.ring.coerce(v)
            if v:
                r = data.get(key)
                data[key] = v if r is None else r + v
                if not data[key]:
                    del data[key]
        self.data = data

    # -- construction

    @staticmethod
    def unit(host, arity):
        if arity == 0:
            return LegTensor(host, 0, {0: host.ring.one()}, _checked=True)
        one = host.ring.one()
        out = {
            key: one if w is None else w
            for key, w in _fills(host.unit_cells(), host.dim, arity)
        }
        return LegTensor(host, arity, out, _checked=True)

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
            if c:
                r = data.get(key)
                data[key] = c if r is None else r + c
                if not data[key]:
                    del data[key]
        return LegTensor(host, arity, data, _checked=True)

    # -- views

    def entries(self):
        """Sorted (digit tuple, scalar) pairs."""
        dim = self.host.dim
        return [
            (decode_key(k, dim, self.arity), v)
            for k, v in sorted(self.data.items())
        ]

    def term_count(self):
        return len(self.data)

    def is_zero(self):
        return not self.data

    def copy(self):
        return LegTensor(self.host, self.arity, dict(self.data), _checked=True)

    # -- algebra

    def mul(self, other):
        """Product in host^(tensor arity).

        Rational, tau-free values over a host with an integer structure
        table take the integer path: key intersection on a pointwise host
        with unit coefficients, rational_convolve otherwise, hbar degree by
        hbar degree over a series ring.  Everything else is one
        tensor_convolve over the values themselves."""
        if other.host is not self.host:
            raise ValueError("tensors live over different hosts")
        if other.arity != self.arity:
            raise ArityMismatch(
                "arity %d vs %d" % (self.arity, other.arity)
            )
        host, arity = self.host, self.arity
        a, b = self.data, other.data
        if host.rational_table() is not None:
            if host.pointwise_coeffs() is not None:
                product = _common_keys
                if len(b) < len(a):
                    a, b = b, a
            else:
                def product(x, y):
                    return rational_convolve(host, arity, x, y)
            K = host.ring.hbar_order
            A = _pieces(a, K)
            B = None if A is None else _pieces(b, K)
            if B is not None:
                if K is None:
                    data = _fractions(*product(A[0], B[0]))
                else:
                    data = _series_product(A, B, K, product)
                return LegTensor(host, arity, data, _checked=True)
        data = tensor_convolve(a, b, host.dim, arity, host.base_table())
        return LegTensor(host, arity, data, _checked=True)

    def add(self, other):
        return self._add(other, False)

    def sub(self, other):
        return self._add(other, True)

    def _add(self, other, negate):
        if other.host is not self.host or other.arity != self.arity:
            raise ArityMismatch("cannot add tensors of different shape")
        data = dict(self.data)
        for k, v in other.data.items():
            _accumulate(data, k, -v if negate else v)
        return LegTensor(self.host, self.arity, data, _checked=True)

    def scale(self, c):
        c = self.host.ring.coerce(c)
        if not c:
            return LegTensor(self.host, self.arity, {}, _checked=True)
        return LegTensor(
            self.host,
            self.arity,
            _clean({k: v * c for k, v in self.data.items()}),
            _checked=True,
        )

    def eq(self, other):
        return (
            self.host is other.host
            and self.arity == other.arity
            and self.data == other.data
        )

    def __eq__(self, other):
        if not isinstance(other, LegTensor):
            return NotImplemented
        return self.eq(other)

    __hash__ = None

    # -- leg calculus

    def leg_embed(self, positions, arity_out):
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
        dim = host.dim
        strides = [dim ** (arity_out - 1 - p) for p in range(arity_out)]
        missing = [p for p in range(arity_out) if p not in positions]
        # every fill of the missing legs with unit terms: (key offset, coeff)
        fills = []
        for fill, w in _fills(host.unit_cells(), dim, len(missing)):
            off = 0
            for p in reversed(missing):
                fill, d = divmod(fill, dim)
                off += d * strides[p]
            fills.append((off, w))
        kept = [strides[p] for p in reversed(positions)]
        out = {}
        for key, c in self.data.items():
            base = 0
            for st in kept:
                key, d = divmod(key, dim)
                base += d * st
            for off, w in fills:
                _accumulate(out, base + off, c if w is None else c * w)
        return LegTensor(host, arity_out, out, _checked=True)

    def coproduct_leg(self, leg):
        if not 0 <= leg < self.arity:
            raise BadLeg("leg %d of %d" % (leg, self.arity))
        host = self.host
        dim = host.dim
        low = dim ** (self.arity - 1 - leg)
        cop = host.coproduct_pieces()
        K = host.ring.hbar_order
        A = None if cop is None else _series_numerators(self.data, K)
        if A is not None:
            # degree v of the tensor times degree u of the coproduct
            pieces = [[] for _ in range(K + 1)]
            for v, (nums, den) in enumerate(A):
                split = []
                for key, n in nums.items():
                    head, tail = divmod(key, low)
                    head, d = divmod(head, dim)
                    split.append((head * dim, d, tail, n))
                for u in range(K + 1 - v):
                    cells, cden = cop[u]
                    piece = {}
                    for head, d, tail, n in split:
                        for j, k, w in cells[d]:
                            nk = ((head + j) * dim + k) * low + tail
                            piece[nk] = piece.get(nk, 0) + n * w
                    if piece:
                        pieces[v + u].append((piece, den * cden))
            out = _series_from_pieces(pieces, K)
            return LegTensor(host, self.arity + 1, out, _checked=True)
        cells = host.leg_cells()[0]
        out = {}
        for key, c in self.data.items():
            head, tail = divmod(key, low)
            head, d = divmod(head, dim)
            for j, k, w in cells[d]:
                nk = ((head * dim + j) * dim + k) * low + tail
                _accumulate(out, nk, c if w is None else c * w)
        return LegTensor(host, self.arity + 1, out, _checked=True)

    def counit_leg(self, leg):
        if not 0 <= leg < self.arity:
            raise BadLeg("leg %d of %d" % (leg, self.arity))
        host = self.host
        dim = host.dim
        cells = host.leg_cells()[1]
        low = dim ** (self.arity - 1 - leg)
        out = {}
        for key, c in self.data.items():
            head, tail = divmod(key, low)
            head, d = divmod(head, dim)
            for e in cells[d]:
                _accumulate(out, head * low + tail, c if e is None else c * e)
        return LegTensor(host, self.arity - 1, out, _checked=True)

    def unit_like(self, arity):
        return LegTensor.unit(self.host, arity)

    def __repr__(self):
        return "LegTensor(%s, arity=%d, %d terms)" % (
            getattr(self.host, "name", "host"),
            self.arity,
            len(self.data),
        )


# -- module-level op aliases matching the published interface


def tensor_mul(a, b):
    return a.mul(b)


def leg_embed(t, positions, arity_out):
    return t.leg_embed(positions, arity_out)


def coproduct_leg(t, leg):
    return t.coproduct_leg(leg)


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
    t0_entries = {}
    for k, v in t.data.items():
        c0 = v.coeffs[0]
        if any(d != 0 for d in c0.terms):
            raise NotInvertible("order-0 part involves tau")
        q = c0.terms.get(0)
        if q is not None:
            t0_entries[k] = q
    host0 = host.order0_host()
    t0 = LegTensor(host0, t.arity, dict(t0_entries), _checked=True)
    unit0 = LegTensor.unit(host0, t.arity)
    if t0.eq(unit0):
        x0 = unit
    else:
        inv0 = _invert_exact(t0, unit0)
        x0 = LegTensor(
            host,
            t.arity,
            {k: ring.coerce(v) for k, v in inv0.data.items()},
            _checked=True,
        )
    # geometric lift: s = unit - t*x0 has positive hbar valuation
    s = unit.sub(t.mul(x0))
    if any(v.coeffs[0] for v in s.data.values()):
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
    host = t.host
    arity = t.arity
    D = host.dim ** arity
    one = host.ring.one()
    cols = [
        t.mul(LegTensor(host, arity, {j: one}, _checked=True)).data
        for j in range(D)
    ]
    zero = host.ring.zero()
    mat = [[cols[j].get(i, zero) for j in range(D)] for i in range(D)]
    rhs = [unit.data.get(i, zero) for i in range(D)]
    sol = linalg.solve(mat, rhs)
    if sol is None:
        raise NotInvertible("tensor has no inverse")
    inv = LegTensor(
        host, arity, {i: v for i, v in enumerate(sol) if v}, _checked=True
    )
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
                    r = out.get(k, 0) + c * w
                    if r:
                        out[k] = r
                    else:
                        out.pop(k, None)
        return out

    def act_tensor(self, ht, avecs):
        """Apply a rank-n host tensor legwise to a list of n A-vectors.

        Returns a dict mapping tuples of A-indices to scalars.
        """
        n = ht.arity
        if len(avecs) != n:
            raise ArityMismatch("%d vectors for arity %d" % (len(avecs), n))
        dim = self.host.dim
        out = {}
        for key, c in ht.data.items():
            digits = decode_key(key, dim, n)
            partial = [((), c)]
            for t in range(n):
                cell_vec = self.act({digits[t]: self.host.ring.one()}, avecs[t])
                if not cell_vec:
                    partial = []
                    break
                partial = [
                    (ks + (k,), cv * v)
                    for ks, cv in partial
                    for k, v in cell_vec.items()
                ]
            for ks, cv in partial:
                r = out.get(ks, 0) + cv
                if r:
                    out[ks] = r
                else:
                    out.pop(ks, None)
        return out

    def verify(self):
        """Module-algebra axioms, exhaustively on basis elements."""
        H, A = self.host, self.algebra
        one = H.ring.one()
        checks = []

        bad, wit = 0, None
        for j in range(A.dim):
            x = {j: A.ring.one()}
            if self.act(H.elem_unit(), x) != x:
                bad += 1
                wit = wit or A.labels[j]
        checks.append(CheckOutcome.from_residual("module-unit", bad, wit))

        bad, wit = 0, None
        for i in range(H.dim):
            hi = {i: one}
            for k in range(H.dim):
                prod = H.basis_mul(i, k)
                for j in range(A.dim):
                    x = {j: A.ring.one()}
                    lhs = self.act(prod, x)
                    rhs = self.act(hi, self.act({k: one}, x))
                    if lhs != rhs:
                        bad += 1
                        if wit is None:
                            wit = "(%s,%s,%s)" % (
                                H.labels[i], H.labels[k], A.labels[j],
                            )
        checks.append(CheckOutcome.from_residual("module-action", bad, wit))

        bad, wit = 0, None
        for i in range(H.dim):
            # h acting on the algebra unit gives counit(h) * 1
            got = self.act({i: one}, A.elem_unit())
            want = _clean(
                {k: H.counit[i] * v for k, v in enumerate(A.unit)}
            )
            if got != want:
                bad += 1
                wit = wit or H.labels[i]
        checks.append(
            CheckOutcome.from_residual("module-algebra-unit", bad, wit)
        )

        bad, wit = 0, None
        for i in range(H.dim):
            dp = H.basis_coproduct(i)
            for ja in range(A.dim):
                for jb in range(A.dim):
                    ab = A.basis_mul(ja, jb)
                    lhs = self.act({i: one}, ab)
                    rhs = {}
                    for (h1, h2), w in dp.items():
                        u = self.act({h1: one}, {ja: A.ring.one()})
                        v = self.act({h2: one}, {jb: A.ring.one()})
                        prod = A.elem_mul(u, v)
                        for k, c in prod.items():
                            r = rhs.get(k, 0) + w * c
                            if r:
                                rhs[k] = r
                            else:
                                rhs.pop(k, None)
                    if lhs != rhs:
                        bad += 1
                        if wit is None:
                            wit = "(%s;%s,%s)" % (
                                H.labels[i], A.labels[ja], A.labels[jb],
                            )
        checks.append(
            CheckOutcome.from_residual("module-algebra-mult", bad, wit)
        )
        return checks


# ---------------------------------------------------------------------------
# linear maps and convolution


def identity_map(host):
    one = host.ring.one()
    zero = host.ring.zero()
    return [
        [one if i == j else zero for j in range(host.dim)]
        for i in range(host.dim)
    ]


def unit_counit_map(host):
    """b -> counit(b) * 1."""
    return [
        [host.counit[i] * v for v in host.unit] for i in range(host.dim)
    ]


def antipode_map(host):
    if host.antipode is None:
        raise ValueError("presentation has no antipode")
    return [row[:] for row in host.antipode]


def convolution(host, f, g):
    """Convolution product of two linear maps given as dense row matrices."""
    zero = host.ring.zero()
    out = []
    for b in range(host.dim):
        acc = {}
        for (j, k), w in host.basis_coproduct(b).items():
            fj = {t: c for t, c in enumerate(f[j]) if c}
            gk = {t: c for t, c in enumerate(g[k]) if c}
            prod = host.elem_mul(fj, gk)
            for tgt, c in prod.items():
                r = acc.get(tgt, 0) + w * c
                if r:
                    acc[tgt] = r
                else:
                    acc.pop(tgt, None)
        out.append([acc.get(j, zero) for j in range(host.dim)])
    return out


def maps_equal(a, b):
    for ra, rb in zip(a, b):
        for va, vb in zip(ra, rb):
            if not va == vb:
                return False
    return True


# ---------------------------------------------------------------------------
# Hopf axiom verification


def verify_hopf(host):
    """Exhaustive axiom report for a HopfPresentation.

    Returns a list of CheckOutcome; all residuals are exact term counts.
    """
    checks = []
    one = host.ring.one()
    dim = host.dim

    # unit laws
    bad, wit = 0, None
    unit_vec = host.elem_unit()
    for i in range(dim):
        x = {i: one}
        if host.elem_mul(unit_vec, x) != x or host.elem_mul(x, unit_vec) != x:
            bad += 1
            wit = wit or host.labels[i]
    checks.append(CheckOutcome.from_residual("unit-laws", bad, wit))

    # associativity
    bad, wit = 0, None
    for i in range(dim):
        xi = {i: one}
        for j in range(dim):
            ij = host.basis_mul(i, j)
            for k in range(dim):
                lhs = host.elem_mul(xi, host.basis_mul(j, k))
                rhs = host.elem_mul(ij, {k: one})
                if lhs != rhs:
                    bad += 1
                    if wit is None:
                        wit = "(%s,%s,%s)" % (
                            host.labels[i], host.labels[j], host.labels[k],
                        )
    checks.append(CheckOutcome.from_residual("associativity", bad, wit))

    # coassociativity on basis elements, via leg calculus
    bad, wit = 0, None
    for i in range(dim):
        t = LegTensor.from_element(host, {i: one})
        d1 = t.coproduct_leg(0)
        lhs = d1.coproduct_leg(0)
        rhs = d1.coproduct_leg(1)
        if not lhs.eq(rhs):
            bad += len(lhs.sub(rhs).data)
            wit = wit or host.labels[i]
    checks.append(CheckOutcome.from_residual("coassociativity", bad, wit))

    # counit laws
    bad, wit = 0, None
    for i in range(dim):
        t = LegTensor.from_element(host, {i: one})
        d1 = t.coproduct_leg(0)
        left = d1.counit_leg(0)
        right = d1.counit_leg(1)
        if not left.eq(t) or not right.eq(t):
            bad += 1
            wit = wit or host.labels[i]
    checks.append(CheckOutcome.from_residual("counit-laws", bad, wit))

    # coproduct and counit are algebra morphisms
    bad, wit = 0, None
    unit2 = LegTensor.unit(host, 2)
    d_unit = LegTensor.from_element(host, unit_vec).coproduct_leg(0)
    if not d_unit.eq(unit2):
        bad += 1
        wit = "coproduct(1)"
    for i in range(dim):
        ti = LegTensor.from_element(host, {i: one}).coproduct_leg(0)
        for j in range(dim):
            tj = LegTensor.from_element(host, {j: one}).coproduct_leg(0)
            prod = host.basis_mul(i, j)
            dprod = LegTensor.from_element(host, prod).coproduct_leg(0)
            if not ti.mul(tj).eq(dprod):
                bad += 1
                if wit is None:
                    wit = "(%s,%s)" % (host.labels[i], host.labels[j])
    checks.append(
        CheckOutcome.from_residual("coproduct-morphism", bad, wit)
    )

    bad, wit = 0, None
    if host.elem_counit(unit_vec) != one:
        bad += 1
        wit = "counit(1)"
    for i in range(dim):
        ei = host.counit[i]
        for j in range(dim):
            lhs = host.elem_counit(host.basis_mul(i, j))
            if lhs != ei * host.counit[j]:
                bad += 1
                if wit is None:
                    wit = "(%s,%s)" % (host.labels[i], host.labels[j])
    checks.append(CheckOutcome.from_residual("counit-morphism", bad, wit))

    if host.antipode is None:
        checks.append(
            CheckOutcome.error("antipode-convolution", "no antipode given")
        )
        return checks

    # antipode: id * S = S * id = unit.counit
    smap = antipode_map(host)
    imap = identity_map(host)
    target = unit_counit_map(host)
    lhs = convolution(host, imap, smap)
    rhs = convolution(host, smap, imap)
    bad = 0
    wit = None
    for b in range(dim):
        for m, side in ((lhs, "id*S"), (rhs, "S*id")):
            row = m[b]
            trow = target[b]
            if any(not x == y for x, y in zip(row, trow)):
                bad += 1
                if wit is None:
                    wit = "%s at %s" % (side, host.labels[b])
    checks.append(
        CheckOutcome.from_residual("antipode-convolution", bad, wit)
    )

    # S(1) = 1
    s1 = host.apply_antipode(unit_vec)
    bad = 0 if s1 == unit_vec else 1
    checks.append(
        CheckOutcome.from_residual("antipode-unit", bad, "S(1)" if bad else None)
    )

    # S(ab) = S(b) S(a)
    bad, wit = 0, None
    for i in range(dim):
        si = host.apply_antipode({i: one})
        for j in range(dim):
            sj = host.apply_antipode({j: one})
            lhs = host.apply_antipode(host.basis_mul(i, j))
            rhs = host.elem_mul(sj, si)
            if lhs != rhs:
                bad += 1
                if wit is None:
                    wit = "(%s,%s)" % (host.labels[i], host.labels[j])
    checks.append(
        CheckOutcome.from_residual("antipode-antihomomorphism", bad, wit)
    )

    # S^2 = id whenever the presentation is (co)commutative
    if host.commutative or host.cocommutative:
        bad, wit = 0, None
        for i in range(dim):
            twice = host.apply_antipode(host.apply_antipode({i: one}))
            if twice != {i: one}:
                bad += 1
                wit = wit or host.labels[i]
        checks.append(
            CheckOutcome.from_residual("antipode-square", bad, wit)
        )

    return checks

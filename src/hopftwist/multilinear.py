"""Finite-dimensional algebra/coalgebra/Hopf presentations and the sparse
leg-indexed tensors their cochains live in.

Conventions:
  * basis indices are 0-based everywhere, including JSON;
  * vectors are sparse dicts {index: scalar} with no stored zeros;
  * linear maps (antipode, module actions) are dense row lists, row i being
    the image of basis i;
  * multiplication and coproduct tables are sparse;
  * tensor legs are 0-based, leftmost leg most significant in flat keys.

A LegTensor stores rational, tau-free values as integer rows, FLINT's
fmpq_poly layout (integer numerators over one shared denominator) lifted to
one canonical (numerators, denominator) pair per hbar degree 0..K, or a
single pair over an exact ring.  mul, add, sub, neg, scale, coproduct_leg,
leg_embed, counit_leg and eq work on the rows and return rows, so a chain
of products never leaves the integers.  A product of rows over a host with
an integer structure table (host.rational_table(): every group algebra, its
twists by a rational cocycle, and the dual hosts) is the key intersection of
numerators on a pointwise host with unit coefficients (a dual host), and
otherwise ``rational_convolve``: one convolution against the integer table,
whose coefficients share one denominator D, over the two operand
denominators times D**arity.  The {key: value} dict of Fractions or Series
is built from the rows only when it is read (reports, JSON, witnesses, the
generic path).  The generic path is one ``tensor_convolve`` over the values
themselves: Cyclotomic values or structure constants, tau-carrying series,
series structure constants other than 1.

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

verify_hopf is the one Hopf axiom battery.  It runs on any host that offers
dim, labels, ring, elem_unit(), a counit list, basis_mul(i, j) and
basis_coproduct(i) as sparse dicts, apply_antipode(vec), and axiom_ids, the
check ids to run in report order: HopfPresentation derives them from its
antipode and its commutative/cocommutative flags, the windowed hosts in
constructors (ShuffleBialgebra, PareigisWindow) state them as class data.
Every product goes through tensor_convolve, over host.base_table() when the
host has one and otherwise over cells built once from basis_mul.  A
windowed host raises WindowOverflow for a value outside its window; the
instances that need such a value are skipped, not failed.
"""

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import (
    ArityMismatch,
    BadLeg,
    BadPositions,
    NotInvertible,
    WindowOverflow,
)
from .reporting import CheckOutcome
from .scalars import ScalarRing, Series, TauLaurent


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
# integer rows


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
    """Integer rows of a dict of values: [_numerators(data)] over an exact
    ring (K None), _numerators() of each hbar-degree piece of order-K
    series otherwise.  None when some value is not rational or carries tau."""
    if K is None:
        parts = [data]
    else:
        parts = [{} for _ in range(K + 1)]
        for k, s in data.items():
            for v, tl in enumerate(s.coeffs):
                terms = tl.terms
                if terms:
                    q = terms.get(0)
                    if q is None or len(terms) != 1:
                        return None
                    parts[v][k] = q
    out = [_numerators(part) for part in parts]
    return None if None in out else out


_ZERO_ROW = ({}, 1)


def _row(pieces):
    """The canonical (numerators, denominator) pair of a sum of such pairs:
    no zero numerators, den > 0 and gcd(den, numerators) = 1, so equal
    values give equal pairs; ({}, 1) for zero."""
    if not pieces:
        return _ZERO_ROW
    if len(pieces) == 1:
        nums, den = pieces[0]
        if 0 in nums.values():
            nums = {k: n for k, n in nums.items() if n}
    else:
        den = lcm(*[d for _, d in pieces])
        nums = {}
        for part, d in pieces:
            f = den // d
            for k, n in part.items():
                nums[k] = nums.get(k, 0) + (n if f == 1 else n * f)
        nums = {k: n for k, n in nums.items() if n}
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: n // g for k, n in nums.items()}, den // g


def _rows_product(A, B, product):
    """Rows of a product: product() of degree v of A and degree w of B,
    summed into degree v + w for each v + w below len(A)."""
    n = len(A)
    pieces = [[] for _ in range(n)]
    for v, a in enumerate(A):
        if a[0]:
            for w in range(n - v):
                if B[w][0]:
                    pieces[v + w].append(product(a, B[w]))
    return [_row(p) for p in pieces]


def _common_keys(a, b):
    """Pointwise product of two (numerators, denominator) pairs."""
    na, nb = a[0], b[0]
    if len(nb) < len(na):
        na, nb = nb, na
    return {k: n * nb[k] for k, n in na.items() if k in nb}, a[1] * b[1]


def _scaled(a, c):
    """A (numerators, denominator) pair times the scalar pair c = ({0: n}, d)."""
    n = c[0][0]
    return {k: x * n for k, x in a[0].items()}, a[1] * c[1]


def _fractions(nums, den):
    if den == 1:
        return {k: Fraction(n) for k, n in nums.items()}
    return {k: Fraction(n, den) for k, n in nums.items()}


def _values(rows, K):
    """{key: value} of integer rows: Fractions over an exact ring (K None),
    otherwise order-K Series built raw, each exactly as Series(K, {degree:
    Fraction}) builds it: K + 1 TauLaurent coefficients, {} or {0: q}."""
    if K is None:
        return _fractions(*rows[0])
    cmaps = {}
    for v, row in enumerate(rows):
        for k, q in _fractions(*row).items():
            cmaps.setdefault(k, {})[v] = q
    raw = TauLaurent._raw
    degrees = range(K + 1)
    return {
        k: Series._raw(K, [raw({0: c[v]} if v in c else {}) for v in degrees])
        for k, c in cmaps.items()
    }


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

    @property
    def axiom_ids(self):
        """verify_hopf's check ids: the bialgebra axioms and the antipode's,
        S^2 = id only on a commutative or cocommutative host."""
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
            if self.commutative or self.cocommutative:
                ids.append("antipode-square")
        return ids

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
        """The coproduct as integer rows: one (cells, D) per hbar degree
        0..K, or one over an exact ring, cells[i] a list of (j, k,
        numerator) over the common denominator D and None for a degree
        with no terms.  None when some coefficient carries tau or is not
        rational."""
        if self._cop_pieces == 0:
            flat = {
                (i, j, k): w
                for i, cell in self.coproduct.items()
                for (j, k), w in cell.items()
            }
            parts = _pieces(flat, self.ring.hbar_order)
            self._cop_pieces = None
            if parts is not None:
                self._cop_pieces = []
                for nums, den in parts:
                    cells = [[] for _ in range(self.dim)] if nums else None
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
    """Sparse element of host^(tensor arity), keyed by flat key.

    Rational, tau-free values are stored as integer rows: one canonical
    (numerators, denominator) pair per hbar degree 0..K over a series ring,
    a single pair over an exact ring (see _row).  data, {key: value} with
    Fraction, Cyclotomic or Series values, is built from the rows on its
    first read and then kept.  A tensor built from a dict gets its rows on
    its first operation, or keeps None when some value is not rational or
    carries tau; such tensors take the generic path over data.
    """

    __slots__ = ("host", "arity", "_data", "_rows")

    def __init__(self, host, arity, entries, _checked=False):
        self.host = host
        self.arity = arity
        self._rows = 0  # not made yet: rows() makes them from data
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
            v = host.ring.coerce(v)
            if v:
                r = data.get(key)
                data[key] = v if r is None else r + v
                if not data[key]:
                    del data[key]
        self._data = data

    @staticmethod
    def _of_rows(host, arity, rows):
        t = LegTensor.__new__(LegTensor)
        t.host = host
        t.arity = arity
        t._data = None
        t._rows = rows
        return t

    # -- construction

    @staticmethod
    def unit(host, arity):
        fills = _fills(host.unit_cells(), host.dim, arity)
        if all(w is None for _k, w in fills):
            ones = {k: 1 for k, _w in fills}
            rows = [(ones, 1)] + [_ZERO_ROW] * (host.ring.hbar_order or 0)
            return LegTensor._of_rows(host, arity, rows)
        one = host.ring.one()
        out = {key: one if w is None else w for key, w in fills}
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

    @property
    def data(self):
        """{flat key: value}, built from the rows on first read."""
        if self._data is None:
            self._data = _values(self._rows, self.host.ring.hbar_order)
        return self._data

    def rows(self):
        """The integer rows of the values, made from data on the first call;
        None when some value is not rational or carries tau."""
        if self._rows == 0:
            self._rows = _pieces(self._data, self.host.ring.hbar_order)
        return self._rows

    def entries(self):
        """Sorted (digit tuple, scalar) pairs."""
        dim = self.host.dim
        return [
            (decode_key(k, dim, self.arity), v)
            for k, v in sorted(self.data.items())
        ]

    def term_count(self):
        if self._data is None:
            return len(set().union(*[nums for nums, _ in self._rows]))
        return len(self._data)

    def is_zero(self):
        if self._data is None:
            return not any(nums for nums, _ in self._rows)
        return not self._data

    def over(self, host):
        """The same values over a host of the same dim, ring and product;
        the rows move as they are."""
        if self._rows:
            return LegTensor._of_rows(host, self.arity, self._rows)
        return LegTensor(host, self.arity, dict(self._data), _checked=True)

    def copy(self):
        return self.over(self.host)

    # -- algebra

    def mul(self, other):
        """Product in host^(tensor arity).

        When both operands have rows and the host has an integer structure
        table (host.rational_table(): every group algebra, its twists by a
        rational cocycle, and the dual hosts), the product is formed on the
        rows, hbar degree by hbar degree, and returned as rows: key
        intersection on a pointwise host with unit coefficients,
        rational_convolve otherwise.  Everything else is one tensor_convolve
        over the values themselves."""
        if other.host is not self.host:
            raise ValueError("tensors live over different hosts")
        if other.arity != self.arity:
            raise ArityMismatch(
                "arity %d vs %d" % (self.arity, other.arity)
            )
        host, arity = self.host, self.arity
        if host.rational_table() is not None:
            A = self.rows()
            B = None if A is None else other.rows()
            if B is not None:
                if host.pointwise_coeffs() is not None:
                    product = _common_keys
                else:
                    def product(x, y):
                        return rational_convolve(host, arity, x, y)
                return LegTensor._of_rows(host, arity, _rows_product(A, B, product))
        data = tensor_convolve(
            self.data, other.data, host.dim, arity, host.base_table()
        )
        return LegTensor(host, arity, data, _checked=True)

    def add(self, other):
        return self._add(other, False)

    def sub(self, other):
        return self._add(other, True)

    def _add(self, other, negate):
        if other.host is not self.host or other.arity != self.arity:
            raise ArityMismatch("cannot add tensors of different shape")
        A = self.rows()
        B = None if A is None else other.rows()
        if B is not None:
            if negate:
                B = [({k: -n for k, n in nums.items()}, d) for nums, d in B]
            rows = [_row([a, b]) for a, b in zip(A, B)]
            return LegTensor._of_rows(self.host, self.arity, rows)
        data = dict(self.data)
        for k, v in other.data.items():
            _accumulate(data, k, -v if negate else v)
        return LegTensor(self.host, self.arity, data, _checked=True)

    def neg(self):
        return self.scale(-1)

    def scale(self, c):
        host = self.host
        c = host.ring.coerce(c)
        A = self.rows()
        C = None if A is None else _pieces({0: c}, host.ring.hbar_order)
        if C is not None:
            return LegTensor._of_rows(host, self.arity, _rows_product(A, C, _scaled))
        return LegTensor(
            host,
            self.arity,
            _clean({k: v * c for k, v in self.data.items()}),
            _checked=True,
        )

    def eq(self, other):
        if self.host is not other.host or self.arity != other.arity:
            return False
        A = self.rows()
        B = None if A is None else other.rows()
        if B is not None:
            return A == B
        return self.data == other.data

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

        def embed(values):
            # distinct (key, fill) pairs give distinct keys: nothing merges
            out = {}
            for key, c in values.items():
                base = 0
                for st in kept:
                    key, d = divmod(key, dim)
                    base += d * st
                for off, w in fills:
                    v = c if w is None else c * w
                    if v:
                        out[base + off] = v
            return out

        A = self.rows()
        if A is not None and all(w is None for _off, w in fills):
            rows = [(embed(nums), den) for nums, den in A]
            return LegTensor._of_rows(host, arity_out, rows)
        return LegTensor(host, arity_out, embed(self.data), _checked=True)

    def coproduct_leg(self, leg):
        if not 0 <= leg < self.arity:
            raise BadLeg("leg %d of %d" % (leg, self.arity))
        host = self.host
        dim = host.dim
        low = dim ** (self.arity - 1 - leg)
        cop = host.coproduct_pieces()
        A = None if cop is None else self.rows()
        if A is not None:
            # degree v of the tensor times degree u of the coproduct
            n = len(A)
            pieces = [[] for _ in range(n)]
            for v, (nums, den) in enumerate(A):
                split = []
                for key, x in nums.items():
                    head, tail = divmod(key, low)
                    head, d = divmod(head, dim)
                    split.append((head * dim, d, tail, x))
                for u in range(n - v):
                    cells, cden = cop[u]
                    if cells is None:
                        continue
                    piece = {}
                    for head, d, tail, x in split:
                        for j, k, w in cells[d]:
                            nk = ((head + j) * dim + k) * low + tail
                            piece[nk] = piece.get(nk, 0) + x * w
                    if piece:
                        pieces[v + u].append((piece, den * cden))
            rows = [_row(p) for p in pieces]
            return LegTensor._of_rows(host, self.arity + 1, rows)
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

        def contract(values):
            out = {}
            for key, c in values.items():
                head, tail = divmod(key, low)
                head, d = divmod(head, dim)
                for e in cells[d]:
                    _accumulate(out, head * low + tail, c if e is None else c * e)
            return out

        A = self.rows()
        if A is not None and all(not e or e[0] is None for e in cells):
            # counit values 0 and 1 only: a key remap that may merge keys
            rows = [_row([(contract(nums), den)]) for nums, den in A]
            return LegTensor._of_rows(host, self.arity - 1, rows)
        return LegTensor(host, self.arity - 1, contract(self.data), _checked=True)

    def unit_like(self, arity):
        return LegTensor.unit(self.host, arity)

    def __repr__(self):
        return "LegTensor(%s, arity=%d, %d terms)" % (
            getattr(self.host, "name", "host"),
            self.arity,
            self.term_count(),
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
    rows = t.rows()
    if rows is None:
        t0_entries = {}
        for k, v in t.data.items():
            c0 = v.coeffs[0]
            if any(d != 0 for d in c0.terms):
                raise NotInvertible("order-0 part involves tau")
            q = c0.terms.get(0)
            if q is not None:
                t0_entries[k] = q
    host0 = host.order0_host()
    if rows is None:
        t0 = LegTensor(host0, t.arity, t0_entries, _checked=True)
    else:
        t0 = LegTensor._of_rows(host0, t.arity, rows[:1])
    unit0 = LegTensor.unit(host0, t.arity)
    if t0.eq(unit0):
        x0 = unit
    else:
        inv0 = _invert_exact(t0, unit0)
        rows = inv0.rows()
        if rows is not None:
            x0 = LegTensor._of_rows(host, t.arity, rows + [_ZERO_ROW] * K)
        else:
            x0 = LegTensor(
                host,
                t.arity,
                {k: ring.coerce(v) for k, v in inv0.data.items()},
                _checked=True,
            )
    # geometric lift: s = unit - t*x0 has positive hbar valuation
    s = unit.sub(t.mul(x0))
    rows = s.rows()
    if rows[0][0] if rows is not None else any(v.coeffs[0] for v in s.data.values()):
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
        one = self.host.ring.one()
        cells = {}  # (digit, leg) -> basis element digit acting on avecs[leg]
        out = {}
        for key, c in ht.data.items():
            digits = decode_key(key, dim, n)
            partial = [((), c)]
            for t in range(n):
                cell_vec = cells.get((digits[t], t))
                if cell_vec is None:
                    cell_vec = cells[digits[t], t] = self.act(
                        {digits[t]: one}, avecs[t]
                    )
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
# Hopf axiom verification


def verify_hopf(host):
    """Exhaustive axiom report for a Hopf algebra or bialgebra on a finite
    basis, one CheckOutcome per id of host.axiom_ids.  Residuals count the
    failing instances; coassociativity counts residual terms."""
    run = _Battery(host)
    return [getattr(run, cid.replace("-", "_") + "_check")() for cid in host.axiom_ids]


def _within(f, *args):
    """f(*args), or None when the value leaves the host's window."""
    try:
        return f(*args)
    except WindowOverflow:
        return None


def _differ(got, want):
    """got != want; None, a value outside the window, differs from nothing."""
    return got is not None and want is not None and got != want


class _Battery:
    """One verify_hopf run: the host's basis products, structure cells,
    coproducts (flat keys) and antipode images, each formed once, None where
    it leaves the window; one method <id>_check per check id."""

    def __init__(self, host):
        self.host = host
        self.dim = dim = host.dim
        self.one = one = host.ring.one()
        self.unit = host.elem_unit()
        self.counit = host.counit
        self.prods = [
            _within(host.basis_mul, i, j) for i in range(dim) for j in range(dim)
        ]
        self.over = {n for n, p in enumerate(self.prods) if p is None}
        if hasattr(host, "base_table"):
            self.cells = host.base_table()
        else:
            self.cells = [
                () if p is None
                else tuple((k, None if v == one else v) for k, v in p.items())
                for p in self.prods
            ]
        self.cops = []
        for i in range(dim):
            cell = _within(host.basis_coproduct, i)
            self.cops.append(
                None if cell is None
                else {a * dim + b: w for (a, b), w in cell.items()}
            )
        try:
            self.images = [self.antipode({i: one}) for i in range(dim)]
        except ValueError:  # a bialgebra, given without antipode
            self.images = None

    def at(self, *idx):
        """Witness naming basis elements by label: "x" or "(x,y,...)"."""
        labels = [self.host.labels[i] for i in idx]
        return labels[0] if len(labels) == 1 else "(%s)" % ",".join(labels)

    def mul(self, a, b, arity=1):
        """a * b in host^(tensor arity); None when a or b is None or the
        product needs a basis product outside the window."""
        if a is None or b is None:
            return None
        dim = self.dim
        if self.over:
            da = [decode_key(k, dim, arity) for k in a]
            db = [decode_key(k, dim, arity) for k in b]
            if any(
                x * dim + y in self.over
                for p in da for q in db for x, y in zip(p, q)
            ):
                return None
        return tensor_convolve(a, b, dim, arity, self.cells)

    def prod(self, i, j):
        return self.prods[i * self.dim + j]

    def coproduct(self, vec):
        """Delta(vec) with flat keys, None outside the window."""
        if vec is None:
            return None
        out = {}
        for k, c in vec.items():
            d = self.cops[k]
            if d is None:
                return None
            for key, w in d.items():
                _accumulate(out, key, c * w)
        return out

    def counit_of(self, vec):
        if vec is None:
            return None
        acc = self.host.ring.zero()
        for k, c in vec.items():
            if self.counit[k]:
                acc = acc + c * self.counit[k]
        return acc

    def antipode(self, vec):
        return None if vec is None else _within(self.host.apply_antipode, vec)

    # -- the checks

    def unit_laws_check(self):
        bad, wit = 0, None
        for i in range(self.dim):
            x = {i: self.one}
            if _differ(self.mul(self.unit, x), x) or _differ(self.mul(x, self.unit), x):
                bad += 1
                wit = wit or self.at(i)
        return CheckOutcome.from_residual("unit-laws", bad, wit)

    def associativity_check(self):
        bad, wit = 0, None
        one, dim = self.one, self.dim
        for i in range(dim):
            xi = {i: one}
            for j in range(dim):
                ij = self.prod(i, j)
                if ij is None:
                    continue
                for k in range(dim):
                    lhs = self.mul(xi, self.prod(j, k))
                    if lhs is not None and _differ(lhs, self.mul(ij, {k: one})):
                        bad += 1
                        wit = wit or self.at(i, j, k)
        return CheckOutcome.from_residual("associativity", bad, wit)

    def commutativity_check(self):
        bad, wit = 0, None
        for i in range(self.dim):
            for j in range(self.dim):
                if _differ(self.prod(i, j), self.prod(j, i)):
                    bad += 1
                    wit = wit or self.at(i, j)
        return CheckOutcome.from_residual("commutativity", bad, wit)

    def coassociativity_check(self):
        bad, wit = 0, None
        dim = self.dim
        for i in range(dim):
            d = self.cops[i]
            if d is None:
                continue
            # (Delta (x) id) Delta(i) - (id (x) Delta) Delta(i), flat keys
            res = {}
            for key, c in d.items():
                a, b = divmod(key, dim)
                left = self.coproduct({a: c})
                right = self.coproduct({b: c})
                if left is None or right is None:
                    res = None
                    break
                for k, w in left.items():
                    _accumulate(res, k * dim + b, w)
                for k, w in right.items():
                    _accumulate(res, a * dim * dim + k, -w)
            if res:
                bad += len(res)
                wit = wit or self.at(i)
        return CheckOutcome.from_residual("coassociativity", bad, wit)

    def counit_laws_check(self):
        bad, wit = 0, None
        e = self.counit
        for i in range(self.dim):
            d = self.cops[i]
            if d is None:
                continue
            left, right = {}, {}
            for key, c in d.items():
                a, b = divmod(key, self.dim)
                if e[a]:
                    _accumulate(left, b, c * e[a])
                if e[b]:
                    _accumulate(right, a, c * e[b])
            x = {i: self.one}
            if left != x or right != x:
                bad += 1
                wit = wit or self.at(i)
        return CheckOutcome.from_residual("counit-laws", bad, wit)

    def coproduct_morphism_check(self):
        bad, wit = 0, None
        dim, unit = self.dim, self.unit
        unit2 = {a * dim + b: u * v for a, u in unit.items() for b, v in unit.items()}
        if _differ(self.coproduct(unit), unit2):
            bad += 1
            wit = "coproduct(1)"
        for i in range(dim):
            for j in range(dim):
                lhs = self.mul(self.cops[i], self.cops[j], 2)
                if _differ(lhs, self.coproduct(self.prod(i, j))):
                    bad += 1
                    wit = wit or self.at(i, j)
        return CheckOutcome.from_residual("coproduct-morphism", bad, wit)

    def counit_morphism_check(self):
        bad, wit = 0, None
        e = self.counit
        if self.counit_of(self.unit) != self.one:
            bad += 1
            wit = "counit(1)"
        for i in range(self.dim):
            for j in range(self.dim):
                if _differ(self.counit_of(self.prod(i, j)), e[i] * e[j]):
                    bad += 1
                    wit = wit or self.at(i, j)
        return CheckOutcome.from_residual("counit-morphism", bad, wit)

    def antipode_convolution_check(self):
        """id * S = S * id = unit.counit, one instance per (basis element,
        side)."""
        S = self.images
        if S is None:
            return CheckOutcome.error("antipode-convolution", "no antipode given")
        bad, wit = 0, None
        one, dim = self.one, self.dim
        for b in range(dim):
            d = self.cops[b]
            if d is None:
                continue
            want = _clean({k: self.counit[b] * v for k, v in self.unit.items()})
            for side in ("id*S", "S*id"):
                got = {}
                for key, c in d.items():
                    x, y = divmod(key, dim)
                    if side == "id*S":
                        p = self.mul({x: one}, S[y])
                    else:
                        p = self.mul(S[x], {y: one})
                    if p is None:
                        got = None
                        break
                    for k, w in p.items():
                        _accumulate(got, k, c * w)
                if _differ(got, want):
                    bad += 1
                    wit = wit or "%s at %s" % (side, self.at(b))
        return CheckOutcome.from_residual("antipode-convolution", bad, wit)

    def antipode_unit_check(self):
        bad = 1 if _differ(self.antipode(self.unit), self.unit) else 0
        return CheckOutcome.from_residual("antipode-unit", bad, "S(1)")

    def antipode_antihomomorphism_check(self):
        bad, wit = 0, None
        S = self.images
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = self.antipode(self.prod(i, j))
                if _differ(lhs, self.mul(S[j], S[i])):
                    bad += 1
                    wit = wit or self.at(i, j)
        return CheckOutcome.from_residual("antipode-antihomomorphism", bad, wit)

    def antipode_square_check(self):
        bad, wit = 0, None
        for i, s in enumerate(self.images):
            if _differ(self.antipode(s), {i: self.one}):
                bad += 1
                wit = wit or self.at(i)
        return CheckOutcome.from_residual("antipode-square", bad, wit)

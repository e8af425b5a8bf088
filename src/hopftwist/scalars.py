"""Exact scalar tower: cyclotomic numbers, Laurent polynomials in tau, and
truncated power series in hbar.

Cyclotomic values live in the reduced power basis 1, z, ..., z^(phi(N)-1) of
Q(z) with z = e^(2*pi*i/N); coordinates are Fractions keyed by exponent and
zero coordinates are never stored.  Mixed-conductor arithmetic aligns both
operands at the lcm conductor.  Conductors are never minimized automatically.
Products of reduced coordinates run through ``cyclo_mul``, except the one
scalar fast path: ``root_of_unity`` hands out one cached value per exponent
and conductor, tagged with its exponent, and the product of two tagged roots
is the root whose exponent is the sum of theirs at the lcm conductor.  The
reduced basis is a basis, so that root has the coordinates ``cyclo_mul``
would give.

TauLaurent is a Laurent polynomial in the formal symbol tau whose numeric
meaning is 2*pi*i, so i/(2*pi) is -tau**-1.  Series is a power series in hbar
truncated at a fixed order K; binary operations insist on equal K.

A Series product is one loop over the hbar degree pairs (i, j) with
i + j <= K.  It sums the tau-products of each pair into a plain dict, adds
that into degree i + j, and builds each coefficient once at the end.  Each
pair is summed before it is added because Cyclotomic sums keep the lcm of
their conductors unless they cancel to zero: this order fixes the
conductors of every result.  A plain number or tau-Laurent factor scales
the coefficients without being made into a Series, and sums reuse a
coefficient where the other side is zero.

Cyclotomic, TauLaurent and Series derive -, / and ** once (``_Ring``),
from their own +, negation, *, inverse and operand coercion.

``accumulate`` is the one sparse sum of values: out[key] += v, with a key
whose sum is zero dropped.  ``SeriesSum``, the base of the pbw and
heis_torus elements, is the one sum of monomials with Series
coefficients: its sums, negations and scalings go through accumulate on
the values.

Integer rows hold sparse values for products, in the layout of FLINT's
fmpq_poly and nf_elem: integer numerators over one shared denominator.
There is no degree row: every row is a phase row, at one conductor N, in
one of two layouts, and this module is the one place that converts both
to and from values.  ``_row`` is the one canonical row: it sums rows into
the canonical pair, and every kernel's output is made canonical by it.

Phase pieces (``phase_pieces``), the layout LegTensor keeps, hold one
canonical (numerators keyed by tensor key, denominator) pair per phase
(hbar degree v, tau power t, exponent e of z_N), with e reduced below
phi(N), no empty phase and no factor of N common to every exponent (so
N = 1 for rational values); their values are
``phase_values`` of their flat row (``pieces_row``), the one value view.
``piece_product`` multiplies two sets of pieces with one accumulator per
output phase: hbar degrees add (truncated at K), tau powers add, and the
exponents add mod lcm(N, M), each operand's scaled to that conductor; the
pairs of phases that land on one phase are summed into one integer list
or dict over the lcm of their denominators, and ``_settle`` makes each
phase canonical once.

A flat phase row (``phase_rows``/``phase_values``), the layout of the pbw
and heis_torus products, of multilinear's phase cells and axiom batteries,
and of a LegTensor product over a table that is neither pointwise nor a
permutation table at arity at most 4, maps (key, hbar degree, tau power, e) to the integer
numerator of z_N^e over one denominator; a rational row is the case N = 1.
Its exponents lie below N but not always below phi(N): in phase cells a
tagged root is one numerator on its own exponent.  Its products
(``row_product`` here, the phase cell products in multilinear) add root
exponents mod N, so they never do Cyclotomic arithmetic; ``row_exp`` is
the one truncated exponential, a sum of row products, which pbw_exp,
heis_torus and ``series_exp`` share.  ``phase_values`` reduces each (key,
hbar degree, tau power) to the basis once, ``row_pieces`` makes the row
phase pieces (``pieces_row`` goes back), and ``reduced_row`` reduces every
exponent, so that a row is zero exactly when it reduces to nothing.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import NonNilpotent, NonUnit, OrderMismatch, SchemaError, SolveTooCostly

# ---------------------------------------------------------------------------
# cyclotomic polynomials and power-basis reduction


def _poly_divexact(num, den):
    # exact division of integer polynomials, den monic
    num = dict(num)
    dd = max(den)
    out = {}
    while num:
        e = max(num)
        if e < dd:
            raise ArithmeticError("inexact polynomial division")
        q = num[e]
        k = e - dd
        out[k] = q
        for de, dv in den.items():
            ne = de + k
            r = num.get(ne, 0) - dv * q
            if r:
                num[ne] = r
            else:
                num.pop(ne, None)
    return out


_PHI_POLY = {1: {1: 1, 0: -1}}


def cyclotomic_polynomial(n):
    """Coefficient dict of the n-th cyclotomic polynomial."""
    if n not in _PHI_POLY:
        num = {n: 1, 0: -1}
        for d in range(1, n):
            if n % d == 0:
                num = _poly_divexact(num, cyclotomic_polynomial(d))
        _PHI_POLY[n] = num
    return _PHI_POLY[n]


_DEG = {}


def _phi_deg(n):
    if n not in _DEG:
        _DEG[n] = max(cyclotomic_polynomial(n))
    return _DEG[n]


_ROWS = {}


def _power_row(n, e):
    """Coordinates of z^e (phi(n) <= e < n) in the reduced basis."""
    phi = _phi_deg(n)
    rows = _ROWS.setdefault(n, [])
    if not rows:
        poly = cyclotomic_polynomial(n)
        rows.append({j: -v for j, v in poly.items() if j < phi and v})
    while len(rows) <= e - phi:
        prev = rows[-1]
        nxt = {}
        for j, v in prev.items():
            if j + 1 == phi:
                for k, w in rows[0].items():
                    nxt[k] = nxt.get(k, 0) + v * w
            else:
                nxt[j + 1] = nxt.get(j + 1, 0) + v
        rows.append({j: v for j, v in nxt.items() if v})
    return rows[e - phi]


def _reduce(n, coords):
    """Reduce exponents mod n, then below phi(n); drop zeros."""
    phi = _phi_deg(n)
    out = {}
    for e, v in coords.items():
        e %= n
        if e < phi:
            r = out.get(e, 0) + v
            if r:
                out[e] = r
            else:
                out.pop(e, None)
        else:
            for j, w in _power_row(n, e).items():
                r = out.get(j, 0) + v * w
                if r:
                    out[j] = r
                else:
                    out.pop(j, None)
    return out


_ROWLIST = {}


def _rows_list(n):
    """Reduction rows for exponents phi(n)..n-1 as (j, weight) pair lists."""
    if n not in _ROWLIST:
        phi = _phi_deg(n)
        _ROWLIST[n] = [
            sorted(_power_row(n, e).items()) for e in range(phi, n)
        ]
    return _ROWLIST[n]


def cyclo_mul(a, b, n, phi, rows):
    """Multiply two reduced cyclotomic coordinate dicts at conductor n.

    rows[e - phi] lists (j, w) pairs expressing z^e in the reduced basis for
    phi <= e <= 2*(phi-1); callers guarantee both inputs reduced.
    """
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = ea + eb
            if e >= n:
                e -= n
            v = va * vb
            if e < phi:
                r = out.get(e, 0) + v
                if r:
                    out[e] = r
                else:
                    out.pop(e, None)
            else:
                for j, w in rows[e - phi]:
                    r = out.get(j, 0) + v * w
                    if r:
                        out[j] = r
                    else:
                        out.pop(j, None)
    return out


_RATIONAL = (int, Fraction)


def _power(out, base, k):
    """out * base**k for an int k >= 0, by repeated squaring that stops at
    the top bit of k."""
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


class _Ring:
    """-, / and ** of a value class, derived once from its +, negation, *
    and inverse: _coerce(x) makes an operand a value of the class (None
    when it cannot, which is NotImplemented), _one() is its unit."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self._one(), self, k)


_ZERO = Fraction(0)


class Cyclotomic(_Ring):
    """Element of Q(e^(2*pi*i/N)) in the reduced power basis.

    root is the exponent e of a value made by root_of_unity(e, N), and None
    for every other value: only a product of two tagged roots, a tagged
    root times the rational 1, or the inverse of a tagged root is tagged
    again.  Values are never changed in place, so the cached roots can be
    shared.
    """

    __slots__ = ("conductor", "coords", "root")

    def __init__(self, conductor, coords, _reduced=False):
        self.conductor = conductor
        self.root = None
        if _reduced:
            self.coords = coords
        else:
            self.coords = _reduce(
                conductor, {e: Fraction(v) for e, v in coords.items()}
            )

    # -- construction helpers

    @staticmethod
    def from_rational(x):
        x = Fraction(x)
        return Cyclotomic(1, {0: x} if x else {}, _reduced=True)

    def _embedded(self, m):
        """Coordinates of self at conductor m (self.conductor divides m)."""
        if m == self.conductor:
            return self.coords
        k = m // self.conductor
        return _reduce(m, {e * k: v for e, v in self.coords.items()})

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        return None

    @staticmethod
    def _one():
        return Cyclotomic.from_rational(1)

    def align(self, other):
        """Return (m, coords_self, coords_other) at the lcm conductor."""
        m = lcm(self.conductor, other.conductor)
        return m, self._embedded(m), other._embedded(m)

    # -- predicates

    def is_zero(self):
        return not self.coords

    def __bool__(self):
        return bool(self.coords)

    def is_rational(self):
        return all(e == 0 for e in self.coords)

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational cyclotomic")
        return self.coords.get(0, Fraction(0))

    # -- arithmetic
    #
    # An int or Fraction operand is used as it is: it lies on the exponent 0,
    # which every reduced basis holds, so it never becomes a Cyclotomic.

    def _plus_rational(self, q):
        out = dict(self.coords)
        r = out.get(0, _ZERO) + q
        if r:
            out[0] = r
        else:
            out.pop(0, None)
        return Cyclotomic(self.conductor, out, _reduced=True)

    def _times_rational(self, q):
        if not q:
            return Cyclotomic(self.conductor, {}, _reduced=True)
        if q == 1:
            return self
        return Cyclotomic(
            self.conductor,
            {e: v * q for e, v in self.coords.items()},
            _reduced=True,
        )

    def __add__(self, other):
        if not isinstance(other, Cyclotomic):
            if isinstance(other, _RATIONAL):
                return self._plus_rational(other)
            return NotImplemented
        m, a, b = self.align(other)
        out = dict(a)
        for e, v in b.items():
            r = out.get(e, 0) + v
            if r:
                out[e] = r
            else:
                out.pop(e, None)
        return Cyclotomic(m, out, _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(
            self.conductor, {e: -v for e, v in self.coords.items()}, _reduced=True
        )

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            if isinstance(other, _RATIONAL):
                return self._times_rational(other)
            return NotImplemented
        if self.root is not None and other.root is not None:
            if self.conductor == other.conductor:
                return root_of_unity(self.root + other.root, self.conductor)
            m = lcm(self.conductor, other.conductor)
            return root_of_unity(
                self.root * (m // self.conductor)
                + other.root * (m // other.conductor),
                m,
            )
        if other.conductor == 1:
            return self._times_rational(other.coords.get(0, 0))
        if self.conductor == 1:
            return other._times_rational(self.coords.get(0, 0))
        m, a, b = self.align(other)
        out = cyclo_mul(a, b, m, _phi_deg(m), _rows_list(m))
        return Cyclotomic(m, out, _reduced=True)

    __rmul__ = __mul__

    def inverse(self):
        if not self.coords:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.root is not None:
            return root_of_unity(-self.root, self.conductor)
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.coords[0])
        if len(self.coords) == 1:
            # c z^e, untagged: its inverse is c^-1 z^-e
            ((e, c),) = self.coords.items()
            return Cyclotomic(self.conductor, {-e % self.conductor: 1 / c})
        # unpriced: grammar prices a divisor before it is formed
        N = self.conductor
        (x,) = solve_columns([_numerators(self.coords)], ({0: 1}, 1), 1, N)
        return Cyclotomic(N, x, _reduced=True)

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            if isinstance(other, _RATIONAL):
                return self.coords == ({0: other} if other else {})
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coords == other.coords
        _, a, b = self.align(other)
        return a == b

    __hash__ = None

    def __repr__(self):
        return "Cyclotomic(%d, %r)" % (self.conductor, self.coords)


_ROOTS = {}


def root_of_unity(p, q):
    """e^(2*pi*i*p/q) at conductor q.  No conductor minimization.

    One cached value per (p % q, q), tagged with its exponent p % q, so that
    products of roots are exponent additions (see Cyclotomic.__mul__)."""
    if q < 1:
        raise ValueError("conductor must be positive")
    e = p % q
    r = _ROOTS.get((e, q))
    if r is None:
        r = _ROOTS[e, q] = Cyclotomic(q, {e: Fraction(1)})
        r.root = e
    return r


# ---------------------------------------------------------------------------
# linear systems over Q(z_N)
#
# One solve, one price, one refusal.  A system over Q(z_N) is integer
# columns: column j is (numerators, den), the numerator at z_N^e of its
# entry in row r keyed by r * N + e (e below N), over its own denominator.
# solve_columns solves their expansion for field_rank, field_solve,
# Cyclotomic.inverse and multilinear._invert_exact.  Every caller but
# Cyclotomic.inverse (grammar prices a divisor when it is parsed) prices
# first with solve_work, and refuse_costly raises SolveTooCostly past the
# cap.  A rational system goes to linalg as it is, unpriced: `verify all`
# at seed 1729 makes 337 field_rank and 76 field_solve calls, all rational,
# and through the columns they made graded-galois 2.4-3.5x slower.
#
# The cap: as single exact tensor inverses on one CPU of a shared 2-core
# x86 machine, dense tensors over k[Z2], k[Z2^2] and k[Z2^3] took 4-8e-8 s
# per unit of solve_work for 32-96 unknowns, and more as they grow: k[Z2]
# at arity 2 over N = 105 (192 unknowns, 4.9e7) 9.0 s, k[Z2^2] at arity 2
# over N = 60 (256, 1.5e8) 51 s.  It refuses what would run for a minute
# or more, such as k[Z2] over N = 997, or canonical_map's 81 x 81 system
# over twisted k^a[Z3 x Z3], a = z(997, b*c) (5.3e14), and keeps every
# solve the tests form: the hopf-cochain suite and the cochain benchmarks
# price their inverses under 10^4, the graded decisions over Q(z_3) theirs
# under 10^7.
_MAX_SOLVE_WORK = 10**8


def solve_work(rows, cols, N, bits):
    """The one price of an exact solve over Q(z_N): R * C * min(R, C) * bits
    for its R = rows * phi(N) by C = cols * phi(N) rational expansion, bits
    those of the top coefficient numerator plus those of its denominator."""
    phi = _phi_deg(N)
    R, C = rows * phi, cols * phi
    return R * C * min(R, C) * bits


def refuse_costly(rows, cols, N, bits):
    """Raise SolveTooCostly when solve_work passes _MAX_SOLVE_WORK."""
    work = solve_work(rows, cols, N, bits)
    if work > _MAX_SOLVE_WORK:
        raise SolveTooCostly(
            "%d x %d system over Q(z_%d) priced at %.1e, past the cap of %.0e"
            % (rows, cols, N, work, _MAX_SOLVE_WORK)
        )


def _expanded(cols, rows, N):
    """The integer matrix of integer columns over rows rows at N: its column
    j * phi + f is column j times z_N^f (z_N is central), its row r * phi + s
    the coordinates at z_N^s of row r, phi = phi(N), so its rank is phi
    times the rank over Q(z_N).  At N = 1 it is one pass over each column."""
    phi = _phi_deg(N)
    mat = [[0] * (len(cols) * phi) for _ in range(rows * phi)]
    if N == 1:
        for c, (nums, _den) in enumerate(cols):
            for r, n in nums.items():
                mat[r][c] = n
        return mat
    for c, (nums, _den) in enumerate(cols):
        for key, n in nums.items():
            r, e = divmod(key, N)
            for f in range(phi):
                s = (e + f) % N
                if s < phi:
                    mat[r * phi + s][c * phi + f] += n
                else:
                    for j, w in _power_row(N, s).items():
                        mat[r * phi + j][c * phi + f] += n * w
    return mat


def solve_columns(cols, rhs, rows, N):
    """A solution of sum_j cols[j] x_j = rhs over Q(z_N), integer columns
    over rows rows, free coordinates zero, or None if it is inconsistent:
    one linalg.solve of the expansion, unpriced, for y_j = x_j * rhs_den /
    den_j.  Each x_j is its coordinates {f: Fraction} on z_N^f, no zeros."""
    from . import linalg

    phi = _phi_deg(N)
    if N == 1:
        b = [rhs[0].get(r, 0) for r in range(rows)]
    else:
        b = [row[0] for row in _expanded([rhs], rows, N)]
    y = linalg.solve(_expanded(cols, rows, N), b)
    if y is None:
        return None
    out = [{} for _ in cols]
    for c, v in enumerate(y):
        if v:
            j, f = divmod(c, phi)
            out[j][f] = v * Fraction(cols[j][1], rhs[1])
    return out


def _conductor(mat):
    """The lcm of the conductors of a matrix's Cyclotomic entries, 1 if it
    has none.  An entry that is neither rational nor Cyclotomic, such as a
    Series, is not in Q(z_N): a SchemaError."""
    for row in mat:
        for x in row:
            if not isinstance(x, (Cyclotomic, *_RATIONAL)):
                raise SchemaError(
                    "an exact solve takes rational and Cyclotomic entries, not %s"
                    % type(x).__name__,
                    "scalar",
                )
    return lcm(*[x.conductor for row in mat for x in row if isinstance(x, Cyclotomic)])


def _field_columns(mat, N):
    """(integer columns at N, bits) of a matrix of int, Fraction and
    Cyclotomic entries, N a multiple of their conductors; bits is the most
    of an entry's top coordinate numerator over its common denominator,
    plus that denominator's, at least 1."""
    bits = 1
    cols = []
    for j in range(len(mat[0])):
        coords = {}
        for i, row in enumerate(mat):
            q = Cyclotomic._coerce(row[j])
            if q.coords:
                vals = q.coords.values()
                den = lcm(*[c.denominator for c in vals])
                top = max(abs(c.numerator) * (den // c.denominator) for c in vals)
                bits = max(bits, top.bit_length() + (den - 1).bit_length())
                coords.update({i * N + e: c for e, c in q._embedded(N).items()})
        cols.append(_numerators(coords))
    return cols, bits


def field_rank(mat):
    """Rank over Q(z_N) of a matrix of rational and Cyclotomic entries, N
    the lcm of the conductors of its nonzero rows.  Every entry is checked
    first, so any other entry, such as a Series, is a SchemaError (_conductor)
    at any size.  Zero rows are dropped next, so at most one nonzero row is
    ranked unpriced; any other matrix with a Cyclotomic entry is priced and
    ranked through its integer columns."""
    from . import linalg

    rational = all(isinstance(x, _RATIONAL) for row in mat for x in row)
    if not rational:
        _conductor(mat)
    mat = [row for row in mat if any(row)]
    if len(mat) < 2:
        return len(mat)
    if rational:
        return linalg.rank(mat)
    N = _conductor(mat)
    cols, bits = _field_columns(mat, N)
    refuse_costly(len(mat), len(cols), N, bits)
    return columns_rank(cols, len(mat), N)


def columns_rank(cols, rows, N):
    """Rank over Q(z_N) of integer columns over rows rows at N, as
    _field_columns makes them, unpriced: its caller has priced them."""
    from . import linalg

    return linalg.rank(_expanded(cols, rows, N)) // _phi_deg(N)


def field_solve(mat, rhs):
    """A solution x of mat x = rhs over Q(z_N), free coordinates zero, or
    None if the system is inconsistent; its entries are Cyclotomic values at
    N, the lcm over every entry, and Fractions from a solve at N = 1.  A
    zero row of mat with a nonzero right side is None at once, and the
    other zero rows are dropped before anything is priced.  One equation
    left in one unknown, with a coefficient whose inverse is immediate (a
    root of unity or one term c z^e), is decided unpriced by
    Cyclotomic.inverse; any other system with a Cyclotomic entry is priced
    and solved through its integer columns, the right side the last."""
    from . import linalg

    aug = [row + [b] for row, b in zip(mat, rhs)]
    if any(row[-1] and not any(row[:-1]) for row in aug):
        return None
    if all(isinstance(x, _RATIONAL) for row in aug for x in row):
        return linalg.solve(mat, rhs)
    N = _conductor(aug)
    # a system of zero rows keeps one, solved by zeros
    aug = [row for row in aug if any(row)] or aug[:1]
    if len(aug) == 1 and len(aug[0]) == 2:
        a, b = map(Cyclotomic._coerce, aug[0])
        if len(a.coords) == 1 or a.root is not None:
            return [Cyclotomic(N, (b * a.inverse())._embedded(N), _reduced=True)]
    cols, bits = _field_columns(aug, N)
    refuse_costly(len(aug), len(cols), N, bits)
    x = solve_columns(cols[:-1], cols[-1], len(aug), N)
    if x is None:
        return None
    if N == 1:
        return [c.get(0, Fraction(0)) for c in x]
    return [Cyclotomic(N, c, _reduced=True) for c in x]


# ---------------------------------------------------------------------------
# Laurent polynomials in tau


def _cy(x):
    """Coerce int/Fraction/Cyclotomic into a coefficient value."""
    if isinstance(x, Cyclotomic):
        return x
    return Fraction(x)


def _tau_product(a, b):
    """Terms of the product of two TauLaurent term dicts, as a new dict.

    A one-term b only shifts the powers of a, so no two products meet and
    none is zero; otherwise products of equal power are summed and zeros
    dropped.  Rational terms are summed as integer numerators over the
    product of the two common denominators, in the same order, so the
    result keeps the order of the Fraction sums.
    """
    if len(b) == 1:
        (kb, vb), = b.items()
        return {ka + kb: va * vb for ka, va in a.items()}
    ra = _numerators(a)
    rb = None if ra is None else _numerators(b)
    if rb is not None:
        a, b = ra[0], rb[0]
    out = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            r = get(k, 0) + va * vb
            if r:
                out[k] = r
            else:
                out.pop(k, None)
    if rb is None:
        return out
    den = ra[1] * rb[1]
    return {k: Fraction(n, den) for k, n in out.items()}


class TauLaurent(_Ring):
    """Laurent polynomial in tau with cyclotomic coefficients.

    tau stands for 2*pi*i, kept formal; tau**-1 carries the 1/(2*pi*i)
    factors that show up in deformation exponents.

    terms is never changed in place once a TauLaurent holds it: Series
    sums and products hand the same TauLaurent (and the same Fraction and
    Cyclotomic values) to several results.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        out = {}
        for k, v in terms.items():
            v = _cy(v)
            if v:
                out[k] = v
        self.terms = out

    @staticmethod
    def _raw(terms):
        """A TauLaurent over terms as they are: nonzero Fraction or
        Cyclotomic values, no copy."""
        t = TauLaurent.__new__(TauLaurent)
        t.terms = terms
        return t

    @staticmethod
    def tau(power=1):
        return TauLaurent({power: 1})

    @staticmethod
    def _coerce(x):
        if isinstance(x, TauLaurent):
            return x
        if isinstance(x, (int, Fraction, Cyclotomic)):
            return TauLaurent({0: x})
        return None

    @staticmethod
    def _one():
        return TauLaurent({0: 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        o = TauLaurent._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in o.terms.items():
            r = out.get(k, 0) + v
            if isinstance(r, int):
                r = Fraction(r)
            if r:
                out[k] = r
            else:
                out.pop(k, None)
        return TauLaurent._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return TauLaurent._raw({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        o = TauLaurent._coerce(other)
        if o is None:
            return NotImplemented
        return TauLaurent._raw(_tau_product(self.terms, o.terms))

    __rmul__ = __mul__

    def inverse(self):
        if len(self.terms) != 1:
            raise NonUnit("tau-Laurent inverse needs a single nonzero monomial")
        (k, v), = self.terms.items()
        if isinstance(v, Cyclotomic):
            w = v.inverse()
        else:
            w = 1 / v
        return TauLaurent({-k: w})

    def __eq__(self, other):
        o = TauLaurent._coerce(other)
        if o is None:
            return NotImplemented
        if set(self.terms) != set(o.terms):
            return False
        return all(self.terms[k] == o.terms[k] for k in self.terms)

    __hash__ = None

    def __repr__(self):
        return "TauLaurent(%r)" % (self.terms,)


# ---------------------------------------------------------------------------
# truncated power series in hbar


def _tau_sum(a, b):
    """a + b for TauLaurent values, reusing one side when the other is zero."""
    if not b.terms:
        return a
    if not a.terms:
        return b
    return a + b


class Series(_Ring):
    """Power series in hbar truncated at order K, coefficients in TauLaurent.

    All binary operations require both operands truncated at the same K;
    plain numbers and tau-Laurent values act as constant series.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        # coeffs: mapping degree -> coefficient, degrees 0..order
        row = [TauLaurent._raw({}) for _ in range(order + 1)]
        for k, v in coeffs.items():
            if not 0 <= k <= order:
                raise ValueError("hbar degree out of range")
            c = TauLaurent._coerce(v)
            if c is None:
                raise TypeError("bad series coefficient %r" % (v,))
            row[k] = c
        self.order = order
        self.coeffs = tuple(row)

    @staticmethod
    def _raw(order, row):
        s = Series.__new__(Series)
        s.order = order
        s.coeffs = tuple(row)
        return s

    @staticmethod
    def const(x, order):
        return Series(order, {0: x})

    @staticmethod
    def one(order):
        return Series(order, {0: 1})

    @staticmethod
    def zero(order):
        return Series(order, {})

    @staticmethod
    def hbar(order, power=1, coeff=1):
        return Series(order, {power: coeff}) if power <= order else Series(order, {})

    def _operand(self, x):
        """x itself if it is a Series of the same order, a plain number or
        tau-Laurent value as a TauLaurent, None for anything else."""
        if isinstance(x, Series):
            if x.order != self.order:
                raise OrderMismatch(
                    "series orders differ: %d vs %d" % (self.order, x.order)
                )
            return x
        return TauLaurent._coerce(x)

    def _coerce(self, x):
        o = self._operand(x)
        if isinstance(o, TauLaurent):
            return Series(self.order, {0: o})
        return o

    def _one(self):
        return Series.one(self.order)

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def valuation(self):
        """Least hbar degree with a nonzero coefficient, None for zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, TauLaurent):
            return Series._raw(
                self.order, (_tau_sum(self.coeffs[0], o),) + self.coeffs[1:]
            )
        return Series._raw(
            self.order, [_tau_sum(a, b) for a, b in zip(self.coeffs, o.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Series._raw(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        """Product truncated at order K: one loop over the degree pairs
        i + j <= K, each pair's tau-products summed before they join degree
        i + j, which fixes the Cyclotomic conductors of the result (see the
        module docstring).  A plain number or tau-Laurent factor scales
        each coefficient."""
        o = self._operand(other)
        if o is None:
            return NotImplemented
        K = self.order
        raw = TauLaurent._raw
        if isinstance(o, TauLaurent):
            c = o.terms
            return Series._raw(
                K,
                [raw(_tau_product(a.terms, c)) if a else a for a in self.coeffs],
            )
        bs = [b.terms for b in o.coeffs]
        row = [None] * (K + 1)
        for i, a in enumerate(self.coeffs):
            a = a.terms
            if not a:
                continue
            for j in range(K + 1 - i):
                b = bs[j]
                if not b:
                    continue
                p = _tau_product(a, b)
                acc = row[i + j]
                if acc is None:
                    row[i + j] = p
                    continue
                for k, v in p.items():
                    r = acc.get(k, 0) + v
                    if r:
                        acc[k] = r
                    else:
                        del acc[k]
        return Series._raw(K, [raw({} if t is None else t) for t in row])

    __rmul__ = __mul__

    def inverse(self):
        """Inverse of a truncated series; NonUnit if the constant term is
        not an invertible tau-monomial."""
        c0 = self.coeffs[0]
        if not c0:
            raise NonUnit("series with zero constant term has no inverse")
        c0inv = c0.inverse()  # NonUnit propagates for non-monomial constants
        u = self * c0inv
        n = Series._raw(self.order, (TauLaurent._raw({}),) + u.coeffs[1:])
        out = Series.one(self.order)
        term = Series.one(self.order)
        for _ in range(self.order):
            term = term * n
            if term.is_zero():
                break
            out = out - term if _ % 2 == 0 else out + term
        return out * c0inv

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, o.coeffs))

    __hash__ = None

    def __repr__(self):
        return "Series(%d, %r)" % (
            self.order,
            {k: c for k, c in enumerate(self.coeffs) if c},
        )


def series_exp(s):
    """exp of a series with zero constant term, truncated at its order: one
    row_exp of the row of s on a single key."""
    if not isinstance(s, Series):
        raise TypeError("series_exp needs a Series")
    if s.coeffs[0]:
        raise NonNilpotent("exp needs a zero constant term")
    K = s.order
    row, N = phase_rows({0: s})
    one = ({(0, 0, 0, 0): 1}, 1)
    return phase_values(row_exp(row, one, K, N, lambda _a, _b: ((0, 1),)), K, N)[0]


def theta_ok(s):
    """True when s is an admissible deformation parameter: a series whose
    constant term vanishes."""
    return isinstance(s, Series) and not s.coeffs[0]


def accumulate(out, key, v):
    """out[key] += v in a sparse dict that stores no zero value."""
    r = out.get(key)
    if r is not None:
        v = r + v
    if v:
        out[key] = v
    else:
        out.pop(key, None)


class SeriesSum:
    """A finite sum of monomial keys with Series coefficients of one order:
    data maps each key to its nonzero coefficient.  A subclass checks its
    keys when it is built, lists its own fields in __slots__ and defines
    _compat(other), which raises when other cannot be added to self."""

    __slots__ = ("order", "data")

    def _raw(self, data, **fields):
        """A value of self's class over data as it is, with self's order
        and fields, those named in fields replaced."""
        out = object.__new__(type(self))
        out.order = self.order
        for name in type(self).__slots__:
            setattr(out, name, fields.get(name, getattr(self, name)))
        out.data = data
        return out

    def is_zero(self):
        return not self.data

    def term_count(self):
        return len(self.data)

    def copy(self):
        return self._raw(dict(self.data))

    def entries(self):
        return sorted(self.data.items())

    def add(self, other):
        self._compat(other)
        out = dict(self.data)
        for key, s in other.data.items():
            accumulate(out, key, s)
        return self._raw(out)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return self._raw({k: -s for k, s in self.data.items()})

    def scale(self, c):
        out = {}
        for k, s in self.data.items():
            accumulate(out, k, s * c)
        return self._raw(out)

    def eq(self, other):
        """self == other as sums; no zero coefficient is stored, so equal
        sums hold equal data."""
        self._compat(other)
        return self.data == other.data


# ---------------------------------------------------------------------------
# integer rows


def _numerators(data, phase=False):
    """(integer numerators, common denominator) of a dict of rational values,
    or None when some value is not rational; with phase, each key k is the
    phase row key (k, 0, 0, 0)."""
    try:
        den = lcm(*[v.denominator for v in data.values()])
    except AttributeError:
        return None
    if den == 1:
        if phase:
            return {(k, 0, 0, 0): v.numerator for k, v in data.items()}, 1
        return {k: v.numerator for k, v in data.items()}, 1
    if phase:
        return {(k, 0, 0, 0): v.numerator * (den // v.denominator) for k, v in data.items()}, den
    return {k: v.numerator * (den // v.denominator) for k, v in data.items()}, den


_ZERO_ROW = ({}, 1)


def _row(pieces):
    """The canonical (numerators, denominator) pair of a sum of such pairs:
    no zero numerators, den > 0 and gcd(den, numerators) = 1, so equal
    values give equal pairs; ({}, 1) for zero."""
    if len(pieces) == 1:
        nums, den = pieces[0]
        if not all(nums.values()):
            nums = {k: n for k, n in nums.items() if n}
        elif den == 1:
            return pieces[0]
    elif not pieces:
        return _ZERO_ROW
    else:
        den = lcm(*[d for _, d in pieces])
        nums = {}
        for part, d in pieces:
            f = den // d
            for k, n in part.items():
                r = nums.get(k)
                n = n if f == 1 else n * f
                nums[k] = n if r is None else r + n
        nums = {k: n for k, n in nums.items() if n}
    if den == 1:
        return nums, 1
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: n // g for k, n in nums.items()}, den // g


# ---------------------------------------------------------------------------
# phase rows


def conductor(values):
    """The lcm of the conductors of the cyclotomic coefficients of Series
    values: 1 when every coefficient is rational."""
    return lcm(
        1,
        *[
            q.conductor
            for s in values
            for c in s.coeffs
            for q in c.terms.values()
            if isinstance(q, Cyclotomic)
        ],
    )


def phase_rows(data, N=1, roots=False):
    """(row, M): the phase row {(key, hbar degree, tau power, e): integer
    numerator} of a dict {key: value} over one denominator, at M the lcm of
    N and the conductors of the values.  A Series value lies on its hbar
    degrees and tau powers, any other on (0, 0); a rational coefficient lies
    on e = 0, and each coordinate of z_L^e in a Cyclotomic one on e * M / L.
    With roots, a tagged root z_L^r is the one numerator 1 on r * M / L,
    which may lie at or past phi(M), so that products of roots stay single
    terms; otherwise the exponents of the row lie below phi(M), and a sum
    of roots keeps the fewer terms of the reduced basis.  When the first
    value is rational the row is first tried as one _numerators pass; a
    row of nonzero values at M = 1 is canonical (see _row): its
    denominator is the lcm of reduced ones."""
    if type(next(iter(data.values()), None)) in _RATIONAL:
        row = _numerators(data, True)
        if row is not None:
            return row, N
    flat = {}
    for key, s in data.items():
        if not isinstance(s, Series):
            flat[key, 0, 0, 0] = s
            continue
        for v, c in enumerate(s.coeffs):
            for t, q in c.terms.items():
                flat[key, v, t, 0] = q
    row = _numerators(flat)
    if row is not None:
        return row, N
    cyc = [(i, q) for i, q in flat.items() if isinstance(q, Cyclotomic)]
    N = lcm(N, *[q.conductor for _, q in cyc])
    for (key, v, t, _), q in cyc:
        del flat[key, v, t, 0]
        for e, x in (q.coords if q.root is None or not roots else {q.root: 1}).items():
            flat[key, v, t, e * (N // q.conductor)] = x
    return _numerators(flat), N


def row_product(A, B, K, N, keymul):
    """Product of two phase rows at conductor N truncated at hbar order K,
    as a row that may hold zero numerators (pass it through _row).

    keymul(k1, k2) gives the product of two keys as (key, integer) pairs.
    Each pair of keys is multiplied once, and not at all when the sum of
    their lowest hbar degrees passes K; a pair of terms adds its hbar
    degrees, tau powers and root exponents (mod N)."""
    ga = _by_key(A[0])
    gb = _by_key(B[0])
    out = {}
    get = out.get
    for k1, ta in ga.items():
        reach = K - ta[0][0]
        for k2, tb in gb.items():
            if tb[0][0] > reach:
                continue
            prods = keymul(k1, k2)
            for v1, t1, e1, n1 in ta:
                room = K - v1
                for v2, t2, e2, n2 in tb:
                    if v2 > room:
                        break
                    x = n1 * n2
                    v = v1 + v2
                    t = t1 + t2
                    e = e1 + e2
                    if e >= N:
                        e -= N
                    for key, q in prods:
                        idx = (key, v, t, e)
                        y = x if q == 1 else x * q
                        r = get(idx)
                        out[idx] = y if r is None else r + y
    return out, A[1] * B[1]


def row_exp(X, one, K, N, keymul):
    """exp of a phase row X with zero hbar constant term, truncated at hbar
    order K, as a canonical row: the sum of the term rows one, X, X^2/2!,
    ..., X^n/n! the row_product (see there for keymul) of X^(n-1)/(n-1)!
    with X over n times its denominator; one is the row of the unit key.
    The sum stops at the first term that is zero."""
    terms = [one]
    for n in range(1, K + 1):
        nums, den = row_product(terms[-1], X, K, N, keymul)
        term = _row([(nums, den * n)])
        if not term[0]:
            break
        terms.append(term)
    return _row(terms)


def _by_key(nums):
    """{key: [(degree, tau power, e, numerator)] in increasing degree}.  No
    two terms of a key share (degree, tau power, e), so sorting never
    compares numerators."""
    g = {}
    for (key, v, t, e), n in nums.items():
        terms = g.get(key)
        if terms is None:
            g[key] = [(v, t, e, n)]
        else:
            terms.append((v, t, e, n))
    for terms in g.values():
        terms.sort()
    return g


def phase_values(row, K, N):
    """{key: order-K Series} of a canonical phase row at conductor N (see
    _row), built raw, with the keys whose value is zero left out; over an
    exact ring (K None) the values are the coefficients of hbar^0 tau^0.  At
    N = 1 each numerator is one Fraction.  Otherwise the coordinates of each
    (key, hbar degree, tau power) are reduced to the basis once
    (``_reduce``); a rational result is a Fraction, any other a Cyclotomic
    of conductor N."""
    nums, den = row
    if N == 1:
        terms = [(k, v, t, Fraction(n, den)) for (k, v, t, _), n in nums.items()]
    else:
        coords = {}
        for (key, v, t, e), n in nums.items():
            c = coords.get((key, v, t))
            if c is None:
                coords[key, v, t] = {e: n}
            else:
                c[e] = n
        terms = []
        for (key, v, t), c in coords.items():
            c = _reduce(N, c)
            if len(c) == 1 and 0 in c:
                terms.append((key, v, t, Fraction(c[0], den)))
            elif c:
                q = {e: Fraction(n, den) for e, n in c.items()}
                terms.append((key, v, t, Cyclotomic(N, q, _reduced=True)))
    return _values(terms, K)


def _values(terms, K):
    """{key: value} of (key, hbar degree, tau power, coefficient) terms: the
    coefficient itself over an exact ring (K None), else an order-K Series
    built raw."""
    if K is None:
        return {key: q for key, _v, _t, q in terms}
    cmaps = {}
    for key, v, t, q in terms:
        degs = cmaps.get(key)
        if degs is None:
            degs = cmaps[key] = {}
        powers = degs.get(v)
        if powers is None:
            degs[v] = {t: q}
        else:
            powers[t] = q
    raw = TauLaurent._raw
    degrees = range(K + 1)
    return {
        key: Series._raw(K, [raw(d[v]) if v in d else raw({}) for v in degrees])
        for key, d in cmaps.items()
    }


# ---------------------------------------------------------------------------
# phase pieces


def phase_pieces(data):
    """(pieces, N): the canonical phase pieces {(v, t, e): (numerators,
    den)} of {key: value} (see phase_rows), e reduced below phi(N)."""
    row = _numerators(data)  # None unless every value is a plain rational
    if row is not None:
        return ({(0, 0, 0): row} if row[0] else {}), 1
    return row_pieces(*phase_rows(data))


def row_pieces(row, N):
    """(pieces, N) of a flat phase row at conductor N with its exponents
    below N: the numerators of each phase, settled (see _settle)."""
    nums, den = row
    groups = {}
    for (key, v, t, e), n in nums.items():
        part = groups.get((v, t, e))
        if part is None:
            groups[v, t, e] = {key: n}
        else:
            part[key] = n
    return _settle({p: [(part, den)] for p, part in groups.items()}, N)


def reduced_row(nums, N):
    """The numerators of a flat phase row at conductor N with each exponent
    (below N) reduced below phi(N) and the zero sums dropped: empty exactly
    when the row's value is zero."""
    phi = _phi_deg(N)
    out = {}
    get = out.get
    for (key, v, t, e), n in nums.items():
        if e < phi:
            out[key, v, t, e] = get((key, v, t, e), 0) + n
        else:
            for j, w in _power_row(N, e).items():
                out[key, v, t, j] = get((key, v, t, j), 0) + n * w
    return {idx: n for idx, n in out.items() if n}


def pieces_row(pieces, N, L):
    """The flat phase row of phase pieces at conductor N over one
    denominator, their exponents scaled to the conductor L, a multiple of
    N."""
    den = lcm(*[d for _nums, d in pieces.values()])
    s = L // N
    return {
        (key, v, t, e * s): n * (den // d)
        for (v, t, e), (nums, d) in pieces.items()
        for key, n in nums.items()
    }, den


def _settle(groups, N):
    """(pieces, N) of {(v, t, e): [(numerators, den)]} with 0 <= e < N: a
    phase whose exponent is at or past phi(N) moves onto the basis, its
    numerators times the integer coordinates of z_N^e; each phase is made
    canonical by _row (its zeros dropped and its content removed; a phase
    that several moved parts land on is summed there) and dropped when it
    cancels.  Then N and every exponent are divided by their gcd s, as
    z_N^e = z_(N/s)^(e/s) and e/s stays below phi(N/s): N becomes 1 when
    no exponent but 0 is left, and a value of Q(z_4) brought to N = 12 by
    a product goes back to 4.  A product (piece_product) hands it one part
    per phase."""
    if N > 1:
        phi = _phi_deg(N)
        for v, t, e in [p for p in groups if p[2] >= phi]:
            parts = groups.pop((v, t, e))
            for j, w in _power_row(N, e).items():
                moved = [({k: n * w for k, n in nums.items()}, den) for nums, den in parts]
                dest = groups.get((v, t, j))
                if dest is None:
                    groups[v, t, j] = moved
                else:
                    dest.extend(moved)
    out = {}
    for p, parts in groups.items():
        row = _row(parts)
        if row[0]:
            out[p] = row
    if N > 1:
        s = gcd(N, *[e for _, _, e in out])
        if s > 1:
            out = {(v, t, e // s): row for (v, t, e), row in out.items()}
            N //= s
    return out, N


def piece_product(A, N, B, M, K, kernel, size):
    """(pieces, L) of a product of phase pieces, A at conductor N and B at
    M, with one integer accumulator per output phase.

    The pairs of phases are grouped by the phase they land on: hbar degrees
    add (a degree past K is left out), tau powers add, and the exponents of
    z add at L = lcm(N, M), each operand's scaled by L over its own
    conductor.  kernel(x, y, acc, f) multiplies the numerators x and y of
    one pair (y may be a leg map's cells): with acc None it returns x*y as
    a new dict, which may hold zeros, otherwise it adds f times x*y into acc
    and returns it.  A phase met by one pair takes the kernel's own dict
    over the two denominators.  The pairs of any other phase all go into
    one accumulator (see _accumulator) over D, the lcm of their denominator
    products, each pair scaled by D over its own product; the accumulator
    is a list of size cells (size is the number of output keys) when the
    sum of len(x) * len(y) over the pairs reaches size, else a dict.  Every
    phase is over its operands' denominators; its zeros go and its content
    is removed once, when the phases are settled (see _settle)."""
    L = N if N == M else lcm(N, M)
    sa, sb = L // N, L // M
    groups = {}
    for (va, ta, ea), a in A.items():
        room = K - va
        ea *= sa
        for (vb, tb, eb), b in B.items():
            if vb > room:
                continue
            e = ea + eb * sb
            if e >= L:
                e -= L
            p = (va + vb, ta + tb, e)
            g = groups.get(p)
            if g is None:
                groups[p] = [(a, b)]
            else:
                g.append((a, b))
    for p, pairs in groups.items():
        if len(pairs) == 1:
            (x, dx), (y, dy) = pairs[0]
            groups[p] = [(kernel(x, y, None, 1), dx * dy)]
            continue
        D = lcm(*[dx * dy for (_x, dx), (_y, dy) in pairs])
        acc = _accumulator(size, sum(len(x) * len(y) for (x, _dx), (y, _dy) in pairs))
        for (x, dx), (y, dy) in pairs:
            kernel(x, y, acc, D // (dx * dy))
        groups[p] = [(_nonzero(acc), D)]
    return _settle(groups, L)


def _accumulator(size, count):
    """An accumulator for count term products over size output keys: a
    list with one cell per key when count reaches size, else a dict."""
    return [0] * size if count >= size else {}


def _nonzero(acc):
    """The nonzero cells of an accumulator as a new dict."""
    if type(acc) is list:
        return {k: n for k, n in enumerate(acc) if n}
    return {k: n for k, n in acc.items() if n}


# ---------------------------------------------------------------------------
# ring descriptors used by presentations and the JSON layer


class ScalarRing:
    """Where a presentation's coefficients live.

    hbar_order None means exact values (rationals or cyclotomics); an integer
    K means truncated series.  Rational values are kept as plain Fractions,
    which is the fast path for the group-algebra hosts.
    """

    __slots__ = ("hbar_order",)

    def __init__(self, hbar_order=None):
        self.hbar_order = hbar_order

    @property
    def is_series(self):
        return self.hbar_order is not None

    def one(self):
        if self.is_series:
            return Series.one(self.hbar_order)
        return Fraction(1)

    def zero(self):
        if self.is_series:
            return Series.zero(self.hbar_order)
        return Fraction(0)

    def coerce(self, x):
        if self.is_series:
            if isinstance(x, Series):
                if x.order != self.hbar_order:
                    raise OrderMismatch(
                        "series order %d, ring expects %d"
                        % (x.order, self.hbar_order)
                    )
                return x
            return Series(self.hbar_order, {0: x})
        if isinstance(x, Fraction):
            return x
        if isinstance(x, Series) or isinstance(x, TauLaurent):
            raise TypeError("series value in an exact ring")
        if isinstance(x, Cyclotomic):
            if x.is_rational():
                return x.as_fraction()
            return x
        return Fraction(x)

    def __eq__(self, other):
        return (
            isinstance(other, ScalarRing) and other.hbar_order == self.hbar_order
        )

    __hash__ = None

    def __repr__(self):
        return "ScalarRing(hbar_order=%r)" % (self.hbar_order,)

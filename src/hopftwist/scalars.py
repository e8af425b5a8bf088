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

Integer rows hold sparse Series-valued data for products, in FLINT's
fmpq_poly layout: integer numerators over one shared denominator.  There
are two layouts, and this module converts both to and from Series.  A
degree row (``_pieces``/``_values``), the layout LegTensor keeps, is one
(numerators, denominator) pair per hbar degree 0..K of rational, tau-free
values, keyed by tensor key.  A term row (``term_rows``/``term_values``)
is one pair for any values: it maps (key, hbar degree, tau power) to an
integer numerator when every value is rational, and otherwise to the value
itself (a Fraction or Cyclotomic) over denominator 1.  ``term_product``
multiplies two term rows with one loop for every kind of numerator, each
pair of keys multiplied once by a caller's key product; ``_row`` sums rows
into the canonical pair.  heis_torus.star and the PBW products run on term
rows and build one Series per key of the result.

A phase row (``phase_rows``/``phase_values``) is the term row of values in
Q(z_N) at one conductor N, keyed by (key, e) for the exponent e of
z_N^e: every cyclotomic coordinate becomes its own integer numerator over
the shared denominator, so ``phase_product`` (``term_product`` with
exponents that add mod N) multiplies integers whatever the values are.
``phase_values`` reduces the coordinates of each (key, hbar degree, tau
power) to the basis once.  The Zak side of heis_torus runs on them.
"""

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import NonNilpotent, NonUnit, OrderMismatch

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
_ZERO = Fraction(0)


class Cyclotomic:
    """Element of Q(e^(2*pi*i/N)) in the reduced power basis.

    root is the exponent e of a value made by root_of_unity(e, N), and None
    for every other value: only a product of two tagged roots, or a tagged
    root times the rational 1, is tagged again.  Values are never changed
    in place, so the cached roots can be shared.
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

    def __sub__(self, other):
        if not isinstance(other, Cyclotomic):
            if isinstance(other, _RATIONAL):
                return self._plus_rational(-other)
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, Cyclotomic):
            if isinstance(other, _RATIONAL):
                return (-self)._plus_rational(other)
            return NotImplemented
        return other + (-self)

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
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.coords[0])
        n = self.conductor
        phi = _phi_deg(n)
        cols = []
        for j in range(phi):
            shifted = _reduce(n, {e + j: v for e, v in self.coords.items()})
            cols.append(shifted)
        mat = [[cols[j].get(i, Fraction(0)) for j in range(phi)] for i in range(phi)]
        rhs = [Fraction(1 if i == 0 else 0) for i in range(phi)]
        sol = linalg.solve(mat, rhs)
        return Cyclotomic(
            n, {j: v for j, v in enumerate(sol) if v}, _reduced=True
        )

    def __truediv__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
    dropped.
    """
    if len(b) == 1:
        (kb, vb), = b.items()
        return {ka + kb: va * vb for ka, va in a.items()}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            r = out.get(k, 0) + va * vb
            if r:
                out[k] = r
            else:
                out.pop(k, None)
    return out


class TauLaurent:
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

    def __sub__(self, other):
        o = TauLaurent._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = TauLaurent._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

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

    def __truediv__(self, other):
        o = TauLaurent._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = TauLaurent._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = TauLaurent({0: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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


class Series:
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

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

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

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = Series.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
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


def series_invert(s):
    """Inverse of a truncated series; NonUnit if the constant term is not
    an invertible tau-monomial."""
    return s.inverse()


def series_exp(s):
    """exp of a series with zero constant term, truncated at its order."""
    if not isinstance(s, Series):
        raise TypeError("series_exp needs a Series")
    if s.coeffs[0]:
        raise NonNilpotent("exp needs a zero constant term")
    out = Series.one(s.order)
    term = Series.one(s.order)
    fact = 1
    for k in range(1, s.order + 1):
        term = term * s
        if term.is_zero():
            break
        fact *= k
        out = out + term * Fraction(1, fact)
    return out


def theta_ok(s):
    """True when s is an admissible deformation parameter: a series whose
    constant term vanishes."""
    return isinstance(s, Series) and not s.coeffs[0]


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
    values give equal pairs; ({}, 1) for zero.  Numerators that are ring
    values (see term_rows) are summed the same way but not reduced."""
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
                r = nums.get(k)
                n = n if f == 1 else n * f
                nums[k] = n if r is None else r + n
        nums = {k: n for k, n in nums.items() if n}
    if den == 1:
        return nums, 1
    try:
        g = gcd(den, *nums.values())
    except TypeError:
        return nums, den
    if g == 1:
        return nums, den
    return {k: n // g for k, n in nums.items()}, den // g


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


def term_rows(items):
    """The term row of (key, Series) pairs: {(key, hbar degree, tau power):
    numerator} over one denominator.  The numerators are integers over the
    lcm of the denominators when every value is rational; otherwise they
    are the values themselves (Fraction or Cyclotomic) over 1."""
    flat = {}
    for key, s in items:
        for v, c in enumerate(s.coeffs):
            for t, q in c.terms.items():
                flat[key, v, t] = q
    nd = _numerators(flat)
    return (flat, 1) if nd is None else nd


def term_product(A, B, K, keymul):
    """Product of two term rows truncated at hbar order K, as a row that may
    hold zero numerators (pass it through _row).

    keymul(k1, k2) gives the product of two keys as (key, integer) pairs.
    Each pair of keys is multiplied once, and not at all when the sum of
    their lowest hbar degrees passes K; the numerator of a product term is
    n1 * n2 * q whatever kind the numerators are, over the product of the
    two denominators."""
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
            for v1, t1, n1 in ta:
                room = K - v1
                for v2, t2, n2 in tb:
                    if v2 > room:
                        break
                    x = n1 * n2
                    v = v1 + v2
                    t = t1 + t2
                    for key, q in prods:
                        idx = (key, v, t)
                        y = x if q == 1 else x * q
                        r = get(idx)
                        out[idx] = y if r is None else r + y
    return out, A[1] * B[1]


def _by_key(nums):
    """{key: [(degree, tau power, numerator)] in increasing degree}.  No
    two terms of a key share (degree, tau power), so sorting never compares
    numerators."""
    g = {}
    for (key, v, t), n in nums.items():
        terms = g.get(key)
        if terms is None:
            g[key] = [(v, t, n)]
        else:
            terms.append((v, t, n))
    for terms in g.values():
        terms.sort()
    return g


def term_values(row, K):
    """{key: order-K Series} of a canonical term row (see _row)."""
    nums, den = row
    inv = None if den == 1 else Fraction(1, den)
    terms = []
    for (key, v, t), n in nums.items():
        if type(n) is int:
            q = Fraction(n, den)
        else:
            q = n if inv is None else n * inv
        terms.append((key, v, t, q))
    return _series_by_key(terms, K)


def _series_by_key(terms, K):
    """{key: order-K Series} of (key, hbar degree, tau power, nonzero value)
    terms, no two with the same key, degree and power, built raw."""
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


def phase_rows(items, N):
    """The phase row at conductor N of (key, Series) pairs: the term row
    keyed by (key, e) for the root exponent e of z = e^(2*pi*i/N), with
    integer numerators over one shared denominator.  A rational value lies
    on e = 0 and a Cyclotomic value of conductor M (M divides N) puts each
    coordinate of z_M^e on e * N / M, not reduced to the basis at N."""
    flat = {}
    for key, s in items:
        for v, c in enumerate(s.coeffs):
            for t, q in c.terms.items():
                if isinstance(q, Cyclotomic):
                    k = N // q.conductor
                    for e, x in q.coords.items():
                        flat[(key, e * k), v, t] = x
                else:
                    flat[(key, 0), v, t] = q
    return _numerators(flat)


def phase_product(A, B, K, N, keymul):
    """Product of two phase rows at conductor N truncated at hbar order K,
    as a row that may hold zero numerators (pass it through _row).  It is
    term_product with root exponents that add mod N; keymul(k1, k2) gives
    the product of two keys (without their exponents) as one key."""

    def mul(k1, k2):
        return ((keymul(k1[0], k2[0]), (k1[1] + k2[1]) % N), 1),

    return term_product(A, B, K, mul)


def phase_values(row, K, N):
    """{key: order-K Series} of a canonical phase row at conductor N, with
    the keys whose value is zero left out.  The coordinates of each (key,
    hbar degree, tau power) are reduced to the basis once (``_reduce``); a
    rational result is a Fraction, any other a Cyclotomic of conductor N."""
    nums, den = row
    coords = {}
    for ((key, e), v, t), n in nums.items():
        c = coords.get((key, v, t))
        if c is None:
            coords[key, v, t] = {e: n}
        else:
            c[e] = n
    terms = []
    for (key, v, t), c in coords.items():
        c = _reduce(N, c)
        if not c:
            continue
        if len(c) == 1 and 0 in c:
            q = Fraction(c[0], den)
        else:
            q = Cyclotomic(
                N, {e: Fraction(n, den) for e, n in c.items()}, _reduced=True
            )
        terms.append((key, v, t, q))
    return _series_by_key(terms, K)


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

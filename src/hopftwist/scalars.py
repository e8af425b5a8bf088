"""Exact scalar tower: cyclotomic numbers, Laurent polynomials in tau, and
truncated power series in hbar.

Cyclotomic values live in the reduced power basis 1, z, ..., z^(phi(N)-1) of
Q(z) with z = e^(2*pi*i/N); coordinates are Fractions keyed by exponent and
zero coordinates are never stored.  Mixed-conductor arithmetic aligns both
operands at the lcm conductor.  Conductors are never minimized automatically.
Products of reduced coordinates run through ``cyclo_mul``.

TauLaurent is a Laurent polynomial in the formal symbol tau whose numeric
meaning is 2*pi*i, so i/(2*pi) is -tau**-1.  Series is a power series in hbar
truncated at a fixed order K; binary operations insist on equal K.
"""

from fractions import Fraction
from math import gcd

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


def _row(n, e):
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
            for j, w in _row(n, e).items():
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
            sorted(_row(n, e).items()) for e in range(phi, n)
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


def _lcm(a, b):
    return a * b // gcd(a, b)


class Cyclotomic:
    """Element of Q(e^(2*pi*i/N)) in the reduced power basis."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor, coords, _reduced=False):
        self.conductor = conductor
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
        m = _lcm(self.conductor, other.conductor)
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

    def __add__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        m, a, b = self.align(o)
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
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        if o.conductor == 1:
            q = o.coords.get(0)
            if q is None:
                return Cyclotomic(self.conductor, {}, _reduced=True)
            return Cyclotomic(
                self.conductor,
                {e: v * q for e, v in self.coords.items()},
                _reduced=True,
            )
        if self.conductor == 1:
            return o * self.coords.get(0, Fraction(0))
        m, a, b = self.align(o)
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
        o = Cyclotomic._coerce(other)
        if o is None:
            return NotImplemented
        if self.conductor == o.conductor:
            return self.coords == o.coords
        _, a, b = self.align(o)
        return a == b

    __hash__ = None

    def __repr__(self):
        return "Cyclotomic(%d, %r)" % (self.conductor, self.coords)


def root_of_unity(p, q):
    """e^(2*pi*i*p/q) at conductor q.  No conductor minimization."""
    if q < 1:
        raise ValueError("conductor must be positive")
    return Cyclotomic(q, {p % q: Fraction(1)})


# ---------------------------------------------------------------------------
# Laurent polynomials in tau


def _cy(x):
    """Coerce int/Fraction/Cyclotomic into a coefficient value."""
    if isinstance(x, Cyclotomic):
        return x
    return Fraction(x)


class TauLaurent:
    """Laurent polynomial in tau with cyclotomic coefficients.

    tau stands for 2*pi*i, kept formal; tau**-1 carries the 1/(2*pi*i)
    factors that show up in deformation exponents.
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
    def from_const(x):
        return TauLaurent({0: x})

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
        t = TauLaurent.__new__(TauLaurent)
        t.terms = out
        return t

    __radd__ = __add__

    def __neg__(self):
        t = TauLaurent.__new__(TauLaurent)
        t.terms = {k: -v for k, v in self.terms.items()}
        return t

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
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in o.terms.items():
                k = ka + kb
                r = out.get(k, 0) + va * vb
                if r:
                    out[k] = r
                else:
                    out.pop(k, None)
        t = TauLaurent.__new__(TauLaurent)
        t.terms = out
        return t

    __rmul__ = __mul__

    def is_unit(self):
        return len(self.terms) == 1

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


class Series:
    """Power series in hbar truncated at order K, coefficients in TauLaurent.

    All binary operations require both operands truncated at the same K;
    plain numbers and tau-Laurent values coerce by padding with zeros.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        # coeffs: mapping degree -> coefficient, degrees 0..order
        row = [TauLaurent({}) for _ in range(order + 1)]
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

    def _coerce(self, x):
        if isinstance(x, Series):
            if x.order != self.order:
                raise OrderMismatch(
                    "series orders differ: %d vs %d" % (self.order, x.order)
                )
            return x
        c = TauLaurent._coerce(x)
        if c is None:
            return None
        return Series(self.order, {0: c})

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

    def constant_term(self):
        return self.coeffs[0]

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Series._raw(
            self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Series._raw(self.order, [-a for a in self.coeffs])

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        K = self.order
        row = [TauLaurent({}) for _ in range(K + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(K + 1 - i):
                b = o.coeffs[j]
                if b:
                    row[i + j] = row[i + j] + a * b
        return Series._raw(K, row)

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
        u = self * Series(self.order, {0: c0inv})
        n = Series._raw(
            self.order, [TauLaurent({})] + list(u.coeffs[1:])
        )
        out = Series.one(self.order)
        term = Series.one(self.order)
        for _ in range(self.order):
            term = term * n
            if term.is_zero():
                break
            out = out - term if _ % 2 == 0 else out + term
        return out * Series(self.order, {0: c0inv})

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
# numeric rendering


def numeric_eval(x, hbar_value, precision):
    """Evaluate an exact scalar to an mpmath complex number.

    tau evaluates to 2*pi*i and hbar to the given rational.  Intended for
    report rendering only; all verification stays exact.
    """
    import mpmath

    with mpmath.workdps(precision):
        return _num(x, Fraction(hbar_value))


def _num(x, hv):
    import mpmath

    if isinstance(x, (int, Fraction)):
        return mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator)
    if isinstance(x, Cyclotomic):
        total = mpmath.mpc(0)
        n = x.conductor
        for e, v in x.coords.items():
            total += mpmath.mpf(v.numerator) / v.denominator * mpmath.expjpi(
                mpmath.mpf(2 * e) / n
            )
        return total
    if isinstance(x, TauLaurent):
        tau = 2j * mpmath.pi
        total = mpmath.mpc(0)
        for k, v in x.terms.items():
            total += _num(v, hv) * tau ** k
        return total
    if isinstance(x, Series):
        h = mpmath.mpf(hv.numerator) / hv.denominator
        total = mpmath.mpc(0)
        for k, c in enumerate(x.coeffs):
            if c:
                total += _num(c, hv) * h ** k
        return total
    raise TypeError("cannot evaluate %r" % (x,))


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

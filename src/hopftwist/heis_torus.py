"""Deformation of function algebras on the Heisenberg nilmanifold.

Functions are finite sums of monomials  coeff * e^{2pi i(mx+nt)} y^p e^{2pi i c y}
with integer windings m, n, a nonnegative y-power p and a rational
y-frequency c.  The t-winding n is the grading degree.  The deformed
product is the truncated exponential star product along the invariant
vector fields X = d_x + y d_t and Y = d_y; the deformation parameter is
a formal series with zero constant term, and tau = 2 pi i stays formal.

The star product runs on term rows (see scalars): a monomial key becomes
(m, n, p, c * D) with D the lcm of the frequency denominators of both
factors, so row keys are integers.  The vector fields act on rows: X
shifts the tau power and multiplies by m or n, Y multiplies by p * D or
by c * D over the denominator times D.  Each term of the sum is the row
of (theta/tau)^k / k! times X^k a, times Y^k b, and the terms are summed
as rows; the result builds one Series per monomial.

Generalized associativity mixes two parameters: (a *_t' b) *_t c equals
a *_t' (b *_t c) exactly when t' = alpha_n(t) for n the degree of b,
with alpha_k(t) = t / (1 + k t) the integer reparametrization action.

The Zak side models each nonzero degree as a module of sequences
f(y; m) of y-monomials indexed by integer slots m, with generator
actions U, V of the deformed torus on both sides and a degree-additive
pairing given by exact affine substitutions in y.
"""

from fractions import Fraction
from math import comb, lcm

from .errors import (
    DegenerateDegrees,
    NotHomogeneous,
    OrderMismatch,
    ZeroDegree,
)
from .scalars import (
    Series,
    TauLaurent,
    _row,
    root_of_unity,
    series_exp,
    series_invert,
    term_product,
    term_rows,
    term_values,
    theta_ok,
)

_TAU = TauLaurent.tau()


def _phase(c):
    """e^{2 pi i c} for rational c, as an exact root of unity."""
    c = Fraction(c)
    if c.denominator == 1:
        return 1
    return root_of_unity(c.numerator % c.denominator, c.denominator)


def _as_series(order, x):
    if isinstance(x, Series):
        if x.order != order:
            raise OrderMismatch(
                "series orders differ: %d vs %d" % (order, x.order)
            )
        return x
    return Series.const(x, order)


def _check_theta(theta, order, convention):
    if convention not in ("main", "alt"):
        raise ValueError("convention must be 'main' or 'alt'")
    if not isinstance(theta, Series):
        theta = Series.const(theta, order)
    if theta.order != order:
        raise OrderMismatch(
            "series orders differ: %d vs %d" % (order, theta.order)
        )
    if not theta_ok(theta):
        raise ValueError("deformation parameter needs a zero constant term")
    return -theta if convention == "alt" else theta


def _acc(store, key, s):
    cur = store.get(key)
    cur = s if cur is None else cur + s
    if cur.is_zero():
        store.pop(key, None)
    else:
        store[key] = cur


class HeisElement:
    """Finite monomial sum at a fixed truncation order."""

    __slots__ = ("order", "data")

    def __init__(self, order, data):
        self.order = order
        norm = {}
        for (m, n, p, c), s in data.items():
            if p < 0:
                raise ValueError("negative y-power")
            s = _as_series(order, s)
            if not s.is_zero():
                _acc(norm, (int(m), int(n), int(p), Fraction(c)), s)
        self.data = norm

    @staticmethod
    def monomial(order, m, n=0, p=0, c=0, coeff=1):
        return HeisElement(order, {(m, n, p, c): coeff})

    @staticmethod
    def zero(order):
        return HeisElement(order, {})

    @staticmethod
    def one(order):
        return HeisElement(order, {(0, 0, 0, 0): 1})

    def is_zero(self):
        return not self.data

    def term_count(self):
        return len(self.data)

    def degrees(self):
        return sorted({k[1] for k in self.data})

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def add(self, other):
        self._compat(other)
        out = dict(self.data)
        for k, s in other.data.items():
            _acc(out, k, s)
        return HeisElement._raw(self.order, out)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, x):
        out = {}
        for k, s in self.data.items():
            _acc(out, k, s * x)
        return HeisElement._raw(self.order, out)

    def _compat(self, other):
        if not isinstance(other, HeisElement):
            raise TypeError("expected a HeisElement")
        if other.order != self.order:
            raise OrderMismatch(
                "series orders differ: %d vs %d" % (self.order, other.order)
            )

    @staticmethod
    def _raw(order, data):
        e = HeisElement.__new__(HeisElement)
        e.order = order
        e.data = data
        return e

    def __eq__(self, other):
        if not isinstance(other, HeisElement):
            return NotImplemented
        return self.order == other.order and self.data == other.data

    def __repr__(self):
        return "HeisElement(order=%d, %d terms)" % (self.order, len(self.data))


def _freq_den(*elements):
    """The lcm of the y-frequency denominators of the elements' keys."""
    return lcm(*[k[3].denominator for f in elements for k in f.data])


def _rows(f, D):
    """Term row of f with each frequency c keyed as the integer c * D."""
    return term_rows(
        ((m, n, p, c.numerator * (D // c.denominator)), s)
        for (m, n, p, c), s in f.data.items()
    )


def _element(order, row, D):
    """The HeisElement of a canonical term row keyed as in _rows."""
    freq = {}
    out = {}
    for (m, n, p, cd), s in term_values(row, order).items():
        c = freq.get(cd)
        if c is None:
            c = freq[cd] = Fraction(cd, D)
        out[m, n, p, c] = s
    return HeisElement._raw(order, out)


def _put(out, idx, x):
    r = out.get(idx)
    out[idx] = x if r is None else r + x


def _field_x(row, D):
    """X = d_x + y d_t: tau * (m + n y) on each monomial."""
    nums, den = row
    out = {}
    for (key, v, t), x in nums.items():
        m, n, p, c = key
        if m:
            _put(out, (key, v, t + 1), x * m)
        if n:
            _put(out, ((m, n, p + 1, c), v, t + 1), x * n)
    return _row([(out, den)])


def _field_y(row, D):
    """Y = d_y: p y^(p-1) + tau * c y^p on each monomial, over den * D."""
    nums, den = row
    out = {}
    for (key, v, t), x in nums.items():
        m, n, p, c = key
        if p:
            _put(out, ((m, n, p - 1, c), v, t), x * (p * D))
        if c:
            _put(out, (key, v, t + 1), x * c)
    return _row([(out, den * D)])


def _field_t(row, D):
    """T = d_t: tau * n on each monomial."""
    nums, den = row
    out = {}
    for (key, v, t), x in nums.items():
        n = key[1]
        if n:
            out[key, v, t + 1] = x * n
    return _row([(out, den)])


_FIELDS = {"X": _field_x, "Y": _field_y, "T": _field_t}


def vf_apply(field, f):
    """Apply one of the invariant vector fields X, Y, T monomial-wise."""
    apply = _FIELDS.get(field)
    if apply is None:
        raise ValueError("field must be one of X, Y, T")
    D = _freq_den(f)
    return _element(f.order, apply(_rows(f, D), D), D)


def _monomial_product(k1, k2):
    return (((k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3]), 1),)


def _scalar_product(k1, k2):
    return ((k2, 1),)


def star(a, b, theta, convention="main"):
    """Truncated star product  sum_k (1/k!) (theta/tau)^k (X^k a)(Y^k b).

    One pass on term rows (see the module docstring): X^k a, Y^k b and the
    factor (theta/tau)^k / k! are rows, and each term of the sum is two
    row products."""
    a._compat(b)
    order = a.order
    theta = _check_theta(theta, order, convention)
    D = _freq_den(a, b)
    xa, yb = _rows(a, D), _rows(b, D)
    lnums, lden = term_rows([((), theta)])
    lam = {(key, v, t - 1): x for (key, v, t), x in lnums.items()}, lden
    pieces = [term_product(xa, yb, order, _monomial_product)]
    coef = ({((), 0, 0): 1}, 1)
    for k in range(1, order + 1):
        xa = _field_x(xa, D)
        yb = _field_y(yb, D)
        nums, den = term_product(coef, lam, order, _scalar_product)
        coef = _row([(nums, den * k)])
        if not (coef[0] and xa[0] and yb[0]):
            break
        scaled = term_product(coef, xa, order, _scalar_product)
        pieces.append(term_product(scaled, yb, order, _monomial_product))
    return _element(order, _row(pieces), D)


def alpha(theta, k, convention="main"):
    """The integer action theta |-> theta / (1 + k theta) on parameters."""
    if not isinstance(theta, Series):
        raise ValueError("deformation parameter must be a series")
    theta = _check_theta(theta, theta.order, convention)
    res = theta * series_invert(Series.one(theta.order) + theta * k)
    return -res if convention == "alt" else res


def assoc_residual(a, b, c, theta, theta_p, convention="main"):
    """(a *_t' b) *_t c  -  a *_t' (b *_t c); zero exactly when
    t' = alpha_n(t) with n the degree of the homogeneous middle factor."""
    if not b.is_homogeneous():
        raise NotHomogeneous("middle factor mixes degrees %r" % (b.degrees(),))
    lhs = star(star(a, b, theta_p, convention), c, theta, convention)
    rhs = star(a, star(b, c, theta, convention), theta_p, convention)
    return lhs.sub(rhs)


def m3_residual(f):
    """f minus its image under (x, y, t) -> (x, y+1, t+x)."""
    out = dict(f.data)
    for (m, n, p, c), s in f.data.items():
        scaled = s * _phase(c)
        for j in range(p + 1):
            _acc(out, (m + n, n, j, c), scaled * (-comb(p, j)))
    return HeisElement._raw(f.order, out)


def m3_membership(f):
    """True when f descends to the quotient by the lattice identification."""
    return m3_residual(f).is_zero()


# ---------------------------------------------------------------------------
# Zak side


class ZakElement:
    """Degree-n sequence of y-monomials indexed by integer slots.

    data maps (slot m, y-power p, y-frequency c) to a Series coefficient.
    """

    __slots__ = ("order", "degree", "data")

    def __init__(self, order, degree, data):
        if degree == 0:
            raise ZeroDegree("Zak elements need a nonzero degree")
        self.order = order
        self.degree = int(degree)
        norm = {}
        for (m, p, c), s in data.items():
            if p < 0:
                raise ValueError("negative y-power")
            s = _as_series(order, s)
            if not s.is_zero():
                _acc(norm, (int(m), int(p), Fraction(c)), s)
        self.data = norm

    @staticmethod
    def monomial(order, degree, m=0, p=0, c=0, coeff=1):
        return ZakElement(order, degree, {(m, p, c): coeff})

    def is_zero(self):
        return not self.data

    def term_count(self):
        return len(self.data)

    def add(self, other):
        self._compat(other)
        out = dict(self.data)
        for k, s in other.data.items():
            _acc(out, k, s)
        return ZakElement._raw(self.order, self.degree, out)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, x):
        out = {}
        for k, s in self.data.items():
            _acc(out, k, s * x)
        return ZakElement._raw(self.order, self.degree, out)

    def _compat(self, other):
        if not isinstance(other, ZakElement):
            raise TypeError("expected a ZakElement")
        if other.order != self.order:
            raise OrderMismatch(
                "series orders differ: %d vs %d" % (self.order, other.order)
            )
        if other.degree != self.degree:
            raise ValueError("degree mismatch")

    @staticmethod
    def _raw(order, degree, data):
        e = ZakElement.__new__(ZakElement)
        e.order = order
        e.degree = degree
        e.data = data
        return e

    def __eq__(self, other):
        if not isinstance(other, ZakElement):
            return NotImplemented
        return (
            self.order == other.order
            and self.degree == other.degree
            and self.data == other.data
        )

    def __repr__(self):
        return "ZakElement(order=%d, degree=%d, %d terms)" % (
            self.order,
            self.degree,
            len(self.data),
        )


def _subst(order, p, c, u, r, sigma):
    """Substitute y -> u*y + r + sigma into y^p e^{2 pi i c y}.

    u is a series with constant term 1, r is rational and sigma is a
    series with zero constant term.  Frequencies stay fixed: the result
    is a dict {new power: Series} against e^{2 pi i c y}.
    """
    c = Fraction(c)
    efac = Series.one(order) * _phase(c * r)
    if not sigma.is_zero():
        efac = efac * series_exp(sigma * (_TAU * c))
    shift = Series.const(r, order) + sigma
    du = u - Series.one(order)
    # e^{2 pi i c (u-1) y} brings extra y powers
    freq = [Series.one(order)]
    if c and not du.is_zero():
        w = Series.one(order)
        t = 1
        while True:
            w = w * du * (_TAU * c) * Fraction(1, t)
            if w.is_zero():
                break
            freq.append(w)
            t += 1
    out = {}
    for j in range(p + 1):
        base = efac * comb(p, j) * (u ** j) * (shift ** (p - j))
        if base.is_zero():
            continue
        for t, w in enumerate(freq):
            s = base * w
            if not s.is_zero():
                cur = out.get(j + t)
                cur = s if cur is None else cur + s
                if cur.is_zero():
                    out.pop(j + t, None)
                else:
                    out[j + t] = cur
    return out


def _act_once(letter, f, theta, side):
    order, n = f.order, f.degree
    out = {}
    if letter == "U":
        # slot shifts by one; left actions also shift y by the
        # reparametrized angle alpha_n(theta)
        r = -Fraction(1, n)
        sigma = (
            alpha(theta, n) if side == "left" else Series.zero(order)
        )
        u = Series.one(order)
        for (m, p, c), s in f.data.items():
            for pnew, w in _subst(order, p, c, u, r, sigma).items():
                _acc(out, (m + 1, pnew, c), s * w)
    elif letter == "V":
        for (m, p, c), s in f.data.items():
            base = s * _phase(Fraction(-m, n))
            if side == "right":
                # e^{2 pi i n theta y} expands into extra y powers
                w = Series.one(order)
                t = 0
                while True:
                    if not w.is_zero():
                        _acc(out, (m, p + t, c + 1), base * w)
                    else:
                        break
                    t += 1
                    w = w * theta * (_TAU * n) * Fraction(1, t)
            else:
                _acc(out, (m, p, c + 1), base)
    else:
        raise ValueError("words are over the letters U and V")
    return ZakElement._raw(order, n, out)


def zak_act_left(word, f, theta, convention="main"):
    """Left torus action; the rightmost letter of the word acts first."""
    theta = _check_theta(theta, f.order, convention)
    for letter in reversed(word):
        f = _act_once(letter, f, theta, "left")
    return f


def zak_act_right(word, f, theta, convention="main"):
    """Right torus action; the leftmost letter of the word acts first."""
    theta = _check_theta(theta, f.order, convention)
    for letter in word:
        f = _act_once(letter, f, theta, "right")
    return f


def zak_pair(f1, f2, theta, convention="main"):
    """Degree-additive pairing of Zak elements via affine substitutions.

    Slot m of the result collects products over slot splittings j+k=m,
    with f1 shifted by (jp-kn)/(n(n+p)) and f2 dilated by (1+n theta)
    and shifted by -(1-p theta)(jp-kn)/(p(n+p)).
    """
    if f1.order != f2.order:
        raise OrderMismatch(
            "series orders differ: %d vs %d" % (f1.order, f2.order)
        )
    order = f1.order
    theta = _check_theta(theta, order, convention)
    n, p = f1.degree, f2.degree
    if n == 0 or p == 0 or n + p == 0:
        raise DegenerateDegrees("degrees n, p, n+p must all be nonzero")
    one = Series.one(order)
    u2 = one + theta * n
    out = {}
    for (j, p1, c1), s1 in f1.data.items():
        for (k, p2, c2), s2 in f2.data.items():
            m = j + k
            num = j * p - k * n
            r1 = Fraction(num, n * (n + p))
            q = Fraction(num, p * (n + p))
            left = _subst(order, p1, c1, one, r1, Series.zero(order))
            right = _subst(order, p2, c2, u2, -q, theta * (p * q))
            base = s1 * s2
            for pa, wa in left.items():
                for pb, wb in right.items():
                    _acc(out, (m, pa + pb, c1 + c2), base * wa * wb)
    return ZakElement._raw(order, n + p, out)

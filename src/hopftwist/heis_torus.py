"""Deformation of function algebras on the Heisenberg nilmanifold.

Functions are finite sums of monomials  coeff * e^{2pi i(mx+nt)} y^p e^{2pi i c y}
with integer windings m, n, a nonnegative y-power p and a rational
y-frequency c.  The t-winding n is the grading degree.  The deformed
product is the truncated exponential star product along the invariant
vector fields X = d_x + y d_t and Y = d_y; the deformation parameter is
a formal series with zero constant term, and tau = 2 pi i stays formal.
Sums and scalings, here and on the Zak side, are those of
scalars.SeriesSum.

Values become phase rows (see scalars) at one public entry and rows
become values at most once, at its exit.  A row is keyed by integers: a
monomial key becomes (m, n, p, c * D) with D the lcm of the frequency
denominators of the factors, at the conductor N of the factors and the
parameters.  The vector fields act on rows: X shifts the tau power and
multiplies by m or n, Y multiplies by p * D or by c * D over the
denominator times D.  _star_rows is the one star product: its k-th term
is the row product of (theta/tau)^k / k! X^k a, formed from the previous
one as (theta/tau) / k times X of it and truncated at the hbar order,
with Y^k b.  star converts its two factors, calls _star_rows once and
builds the result.

Generalized associativity mixes two parameters: (a *_t' b) *_t c equals
a *_t' (b *_t c) exactly when t' = alpha_n(t) for n the degree of b,
with alpha_k(t) = t / (1 + k t) the integer reparametrization action.
assoc_residual converts a, b and c once, at one D and one N (of the
three and both parameters), chains the four products and their
difference on rows, and builds only the difference.

The Zak side models each nonzero degree as a module of sequences
f(y; m) of y-monomials indexed by integer slots m, with generator
actions U, V of the deformed torus on both sides and a degree-additive
pairing given by exact affine substitutions in y.  A Zak row (_ZakRow)
is a phase row keyed by (slot, y-power, frequency * D) that carries its
D and N; where two rows meet, or a phase e^{2 pi i c r} or e^{-2 pi i
m/n} needs more, a row is lifted: its frequency keys are multiplied by
D' / D and its exponents by N' / N.  Each substitution is a polynomial
in y with phase-row coefficients, keyed by y-power and memoized per
(y-power, frequency, shift) within a call.  _act_rows and _pair_rows are
the one action and pairing: _act_once and zak_pair convert their
operands and build their result, and the pairing checks compose actions
and pairings on rows, form alpha_n(theta) once per word, and compare two
rows by their reduced difference (_rows_differ) without building a
value.

The heis-torus suite body, heis_torus_checks, with its seeded random
elements, is here too.
"""

from fractions import Fraction
from math import comb, lcm

from .errors import (
    DegenerateDegrees,
    NotHomogeneous,
    OrderMismatch,
    ZeroDegree,
)
from .reporting import CheckOutcome, key_repr
from .scalars import (
    _ZERO_ROW,
    ScalarRing,
    Series,
    SeriesSum,
    TauLaurent,
    _row,
    accumulate,
    conductor,
    phase_rows,
    phase_values,
    reduced_row,
    root_of_unity,
    row_exp,
    row_product,
    series_exp,
    theta_ok,
)

def _phase(c):
    """e^{2 pi i c} for rational c, as an exact root of unity."""
    c = Fraction(c)
    if c.denominator == 1:
        return 1
    return root_of_unity(c.numerator % c.denominator, c.denominator)


def _check_theta(theta, order):
    if not isinstance(theta, Series):
        theta = Series.const(theta, order)
    if theta.order != order:
        raise OrderMismatch(
            "series orders differ: %d vs %d" % (order, theta.order)
        )
    if not theta_ok(theta):
        raise ValueError("deformation parameter needs a zero constant term")
    return theta


class HeisElement(SeriesSum):
    """Finite monomial sum at a fixed truncation order."""

    __slots__ = ()

    def __init__(self, order, data):
        self.order = order
        coerce = ScalarRing(order).coerce
        norm = {}
        for (m, n, p, c), s in data.items():
            if p < 0:
                raise ValueError("negative y-power")
            accumulate(norm, (int(m), int(n), int(p), Fraction(c)), coerce(s))
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

    def degrees(self):
        return sorted({k[1] for k in self.data})

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def _compat(self, other):
        if not isinstance(other, HeisElement):
            raise TypeError("expected a HeisElement")
        if other.order != self.order:
            raise OrderMismatch(
                "series orders differ: %d vs %d" % (self.order, other.order)
            )

    def __eq__(self, other):
        if not isinstance(other, HeisElement):
            return NotImplemented
        return self.order == other.order and self.data == other.data

    def __repr__(self):
        return "HeisElement(order=%d, %d terms)" % (self.order, len(self.data))


def _freq_den(*elements):
    """The lcm of the y-frequency denominators of the elements' keys."""
    return lcm(*[k[-1].denominator for f in elements for k in f.data])


def _rows(f, D, N):
    """Phase row of f at conductor N, the frequency c that ends each key
    keyed as the integer c * D."""
    return phase_rows(
        {k[:-1] + (k[-1].numerator * (D // k[-1].denominator),): s for k, s in f.data.items()},
        N,
    )[0]


def _freq_keys(values, D):
    """values with the last entry of each key, a frequency c keyed as the
    integer c * D, made the Fraction c again."""
    freq = {}
    out = {}
    for key, s in values.items():
        cd = key[-1]
        c = freq.get(cd)
        if c is None:
            c = freq[cd] = Fraction(cd, D)
        out[key[:-1] + (c,)] = s
    return out


def _element(f, row, D, N, **fields):
    """The value of f's class and order (fields replaced) of a canonical
    phase row keyed as in _rows."""
    return f._raw(_freq_keys(phase_values(row, f.order, N), D), **fields)


def _negated(row):
    nums, den = row
    return {k: -x for k, x in nums.items()}, den


def _field_x(row, D):
    """X = d_x + y d_t: tau * (m + n y) on each monomial."""
    nums, den = row
    out = {}
    get = out.get
    for (key, v, t, e), x in nums.items():
        m, n, p, c = key
        if m:
            idx = key, v, t + 1, e
            r = get(idx)
            out[idx] = x * m if r is None else r + x * m
        if n:
            idx = (m, n, p + 1, c), v, t + 1, e
            r = get(idx)
            out[idx] = x * n if r is None else r + x * n
    return _row([(out, den)])


def _field_y(row, D):
    """Y = d_y: p y^(p-1) + tau * c y^p on each monomial, over den * D."""
    nums, den = row
    out = {}
    get = out.get
    for (key, v, t, e), x in nums.items():
        m, n, p, c = key
        if p:
            idx = (m, n, p - 1, c), v, t, e
            r = get(idx)
            out[idx] = x * (p * D) if r is None else r + x * (p * D)
        if c:
            idx = key, v, t + 1, e
            r = get(idx)
            out[idx] = x * c if r is None else r + x * c
    return _row([(out, den * D)])


def _field_t(row, D):
    """T = d_t: tau * n on each monomial."""
    nums, den = row
    out = {}
    for (key, v, t, e), x in nums.items():
        n = key[1]
        if n:
            out[key, v, t + 1, e] = x * n
    return _row([(out, den)])


_FIELDS = {"X": _field_x, "Y": _field_y, "T": _field_t}


def vf_apply(field, f):
    """Apply one of the invariant vector fields X, Y, T monomial-wise."""
    apply = _FIELDS.get(field)
    if apply is None:
        raise ValueError("field must be one of X, Y, T")
    D = _freq_den(f)
    N = conductor(f.data.values())
    return _element(f, apply(_rows(f, D, N), D), D, N)


def _monomial_product(k1, k2):
    return (((k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3]), 1),)


def _over_tau(theta, N):
    """The row at conductor N of theta / tau, keyed by ()."""
    (nums, den), _ = phase_rows({(): theta}, N)
    return {(key, v, t - 1, e): x for (key, v, t, e), x in nums.items()}, den


def _scalar_times(lam, row, k, K, N):
    """lam * row / k truncated at hbar order K, for a row lam keyed by ()."""
    out = {}
    get = out.get
    terms = row[0].items()
    for (_, v0, t0, e0), x0 in lam[0].items():
        room = K - v0
        for (key, v, t, e), x in terms:
            if v <= room:
                e += e0
                idx = key, v + v0, t + t0, e - N if e >= N else e
                r = get(idx)
                out[idx] = x * x0 if r is None else r + x * x0
    return _row([(out, lam[1] * row[1] * k)])


def _star_rows(xa, yb, lam, K, N, D):
    """The canonical row of the star product of the rows xa and yb at
    conductor N, frequencies keyed times D, with lam the row of theta / tau
    (_over_tau).  The k-th term of the sum is the row product of
    (theta/tau)^k / k! X^k a, formed as lam / k times X of the (k-1)-th and
    truncated at hbar order K, with Y^k b."""
    pieces = [row_product(xa, yb, K, N, _monomial_product)]
    for k in range(1, K + 1):
        xa = _scalar_times(lam, _field_x(xa, D), k, K, N)
        yb = _field_y(yb, D)
        if not (xa[0] and yb[0]):
            break
        pieces.append(row_product(xa, yb, K, N, _monomial_product))
    return _row(pieces)


def star(a, b, theta):
    """Truncated star product  sum_k (1/k!) (theta/tau)^k (X^k a)(Y^k b).

    The operands become rows once, the sum is one _star_rows, and the
    result is built from its row once."""
    a._compat(b)
    K = a.order
    theta = _check_theta(theta, K)
    D = _freq_den(a, b)
    N = conductor([*a.data.values(), *b.data.values(), theta])
    lam = _over_tau(theta, N)
    return _element(a, _star_rows(_rows(a, D, N), _rows(b, D, N), lam, K, N, D), D, N)


def alpha(theta, k):
    """The integer action theta |-> theta / (1 + k theta) on parameters."""
    if not isinstance(theta, Series):
        raise ValueError("deformation parameter must be a series")
    theta = _check_theta(theta, theta.order)
    return theta * (Series.one(theta.order) + theta * k).inverse()


def assoc_residual(a, b, c, theta, theta_p):
    """(a *_t' b) *_t c  -  a *_t' (b *_t c); zero exactly when
    t' = alpha_n(t) with n the degree of the homogeneous middle factor.

    The three factors become rows once, at the lcm D of their frequency
    denominators and the conductor N of them and both parameters; the four
    products and the difference run on rows, and only the difference is
    built as an element."""
    if not b.is_homogeneous():
        raise NotHomogeneous("middle factor mixes degrees %r" % (b.degrees(),))
    a._compat(b)
    a._compat(c)
    K = a.order
    theta = _check_theta(theta, K)
    theta_p = _check_theta(theta_p, K)
    D = _freq_den(a, b, c)
    N = conductor([*a.data.values(), *b.data.values(), *c.data.values(), theta, theta_p])
    ra, rb, rc = _rows(a, D, N), _rows(b, D, N), _rows(c, D, N)
    lam, lam_p = _over_tau(theta, N), _over_tau(theta_p, N)
    lhs = _star_rows(_star_rows(ra, rb, lam_p, K, N, D), rc, lam, K, N, D)
    rhs = _star_rows(ra, _star_rows(rb, rc, lam, K, N, D), lam_p, K, N, D)
    return _element(a, _row([lhs, _negated(rhs)]), D, N)


def m3_residual(f):
    """f minus its image under (x, y, t) -> (x, y+1, t+x); zero exactly
    when f descends to the quotient by the lattice identification."""
    out = dict(f.data)
    for (m, n, p, c), s in f.data.items():
        scaled = s * _phase(c)
        for j in range(p + 1):
            accumulate(out, (m + n, n, j, c), scaled * (-comb(p, j)))
    return f._raw(out)


# ---------------------------------------------------------------------------
# Zak side


class ZakElement(SeriesSum):
    """Degree-n sequence of y-monomials indexed by integer slots.

    data maps (slot m, y-power p, y-frequency c) to a Series coefficient.
    """

    __slots__ = ("degree",)

    def __init__(self, order, degree, data):
        if degree == 0:
            raise ZeroDegree("Zak elements need a nonzero degree")
        self.order = order
        self.degree = int(degree)
        coerce = ScalarRing(order).coerce
        norm = {}
        for (m, p, c), s in data.items():
            if p < 0:
                raise ValueError("negative y-power")
            accumulate(norm, (int(m), int(p), Fraction(c)), coerce(s))
        self.data = norm

    @staticmethod
    def monomial(order, degree, m=0, p=0, c=0, coeff=1):
        return ZakElement(order, degree, {(m, p, c): coeff})

    def _compat(self, other):
        if not isinstance(other, ZakElement):
            raise TypeError("expected a ZakElement")
        if other.order != self.order:
            raise OrderMismatch(
                "series orders differ: %d vs %d" % (self.order, other.order)
            )
        if other.degree != self.degree:
            raise ValueError("degree mismatch")

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


class _ZakRow:
    """A Zak element of one order and degree as a canonical phase row at
    conductor N keyed by (slot, y-power, frequency * D), D a multiple of
    every frequency denominator."""

    __slots__ = ("order", "degree", "row", "D", "N")

    def __init__(self, order, degree, row, D, N):
        self.order = order
        self.degree = degree
        self.row = row
        self.D = D
        self.N = N

    def lifted(self, D, N):
        """The row at the frequency denominator D and the conductor N,
        multiples of self's: frequency keys times D / self.D, exponents
        times N / self.N."""
        if D == self.D and N == self.N:
            return self.row
        f, s = D // self.D, N // self.N
        nums, den = self.row
        return {
            ((m, p, cd * f), v, t, e * s): x
            for ((m, p, cd), v, t, e), x in nums.items()
        }, den


def _zak_row(f):
    D = _freq_den(f)
    N = conductor(f.data.values())
    return _ZakRow(f.order, f.degree, _rows(f, D, N), D, N)


def _zak_element(f, z):
    return _element(f, z.row, z.D, z.N, degree=z.degree)


def _rows_differ(z1, z2):
    """z1 != z2 for Zak rows of one order: their difference at the lcm D
    and N of both, with every exponent reduced (scalars.reduced_row), is
    not empty."""
    if z1.degree != z2.degree:
        return True
    D, N = lcm(z1.D, z2.D), lcm(z1.N, z2.N)
    (an, ad), (bn, bd) = z1.lifted(D, N), z2.lifted(D, N)
    if ad == bd and an == bn:
        return False
    den = lcm(ad, bd)
    diff = {k: x * (den // ad) for k, x in an.items()}
    f = den // bd
    for k, x in bn.items():
        diff[k] = diff.get(k, 0) - x * f
    return bool(reduced_row(diff, N))


def _scaled(row, q, y=0, t=0):
    """q * y^y * tau^t times a phase row keyed by y-power, for rational q."""
    q = Fraction(q)
    nums, den = row
    moved = {
        (j + y, v, k + t, e): x * q.numerator
        for (j, v, k, e), x in nums.items()
    }
    return _row([(moved, den * q.denominator)])


def _ypow(i, j):
    """The product of y^i and y^j as (key, integer) pairs."""
    return ((i + j, 1),)


def _ymul(A, B, K, N):
    """Product of two phase rows keyed by y-power: the powers add."""
    return _row([row_product(A, B, K, N, _ypow)])


def _root(e):
    """The phase row of z_N^e at y-power 0."""
    return {(0, 0, 0, e): 1}, 1


def _subst(K, N, p, c, du, r, sigma):
    """Substitute y -> (1 + du) y + r + sigma into y^p e^{2 pi i c y}.

    du and sigma are phase rows at conductor N with zero hbar constant
    term, r is rational and N * c * r is an integer.  Frequencies stay
    fixed: the result is the phase row, keyed by y-power, of the
    polynomial in y that multiplies e^{2 pi i c y}, namely
    e^{2 pi i c r} e^{tau c (du y + sigma)} ((1 + du) y + r + sigma)^p.
    """
    x = c * r
    e = x.numerator * (N // x.denominator) % N
    if not (du[0] or sigma[0]):
        # a translation: e^{2 pi i c r} (y + r)^p by the binomial theorem
        a, b = r.numerator, r.denominator
        return _row([(
            {(j, 0, 0, e): comb(p, j) * a ** (p - j) * b ** j for j in range(p + 1)},
            b ** p,
        )])
    out = _root(e)
    if c:
        # e^{2 pi i c (du y + sigma)}: du brings extra y powers
        arg = _row([_scaled(du, c, y=1, t=1), _scaled(sigma, c, t=1)])
        if arg[0]:
            out = _ymul(out, row_exp(arg, _root(0), K, N, _ypow), K, N)
    if p:
        one = _root(0)
        lin = _row(
            [_scaled(_row([one, du]), 1, y=1), _scaled(one, r), sigma]
        )
        for _ in range(p):
            out = _ymul(out, lin, K, N)
    return out


def _by_slot(row):
    """{(y-power, frequency key): numerators keyed (slot, v, t, e)} of a Zak
    row's numerators."""
    out = {}
    for ((m, p, cd), v, t, e), x in row[0].items():
        part = out.get((p, cd))
        if part is None:
            out[p, cd] = {(m, v, t, e): x}
        else:
            part[m, v, t, e] = x
    return out


def _act_rows(letter, z, angle, side):
    """One letter of the torus action on a Zak row.  angle is alpha_n(theta)
    for a left U, which also shifts y by it, and theta for a right V, whose
    e^{2 pi i n theta y} expands into extra y powers; the other two ignore
    it.  U moves each slot up by one, V multiplies slot m by e^{-2 pi i
    m/n} and raises each frequency by one."""
    K, n, D = z.order, z.degree, z.D
    if letter == "U":
        r = -Fraction(1, n)
        N = lcm(
            z.N,
            conductor([angle]) if side == "left" else 1,
            *[Fraction(cd, D * n).denominator for (_, _, cd), _, _, _ in z.row[0]],
        )
        sig = phase_rows({0: angle}, N)[0] if side == "left" else _ZERO_ROW
        den = z.row[1]
        pieces = []
        for (p, cd), part in _by_slot(z.lifted(D, N)).items():
            w = _subst(K, N, p, Fraction(cd, D), _ZERO_ROW, r, sig)
            pieces.append(
                row_product(
                    (part, den), w, K, N, lambda m, j: (((m + 1, j, cd), 1),)
                )
            )
        row = _row(pieces)
    elif letter == "V":
        N = lcm(n, z.N, conductor([angle]) if side == "right" else 1)
        step = N // n
        nums, den = z.lifted(D, N)
        row = {
            ((m, p, cd + D), v, t, (e - m * step) % N): x
            for ((m, p, cd), v, t, e), x in nums.items()
        }, den
        if side == "right":
            arg = _scaled(phase_rows({0: angle}, N)[0], n, y=1, t=1)
            g = row_exp(arg, _root(0), K, N, _ypow)
            row = _row([
                row_product(
                    row, g, K, N, lambda k, j: (((k[0], k[1] + j, k[2]), 1),)
                )
            ])
    else:
        raise ValueError("words are over the letters U and V")
    return _ZakRow(K, n, row, D, N)


def _word_rows(word, z, theta, side):
    """The left (rightmost letter first) or right (leftmost letter first)
    action of a word on a Zak row; a left word forms alpha_n(theta) once."""
    theta = _check_theta(theta, z.order)
    if side == "left":
        word = word[::-1]
        if "U" in word:
            theta = alpha(theta, z.degree)
    for letter in word:
        z = _act_rows(letter, z, theta, side)
    return z


def _act_once(letter, f, theta, side):
    angle = alpha(theta, f.degree) if side == "left" and letter == "U" else theta
    return _zak_element(f, _act_rows(letter, _zak_row(f), angle, side))


def zak_act_left(word, f, theta):
    """Left torus action; the rightmost letter of the word acts first."""
    theta = _check_theta(theta, f.order)
    for letter in reversed(word):
        f = _act_once(letter, f, theta, "left")
    return f


def zak_act_right(word, f, theta):
    """Right torus action; the leftmost letter of the word acts first."""
    theta = _check_theta(theta, f.order)
    for letter in word:
        f = _act_once(letter, f, theta, "right")
    return f


def _pair_rows(z1, z2, theta):
    """zak_pair of two Zak rows, as a Zak row at the lcm D of their
    frequency denominators: both are lifted to it and to the conductor of
    both, theta and every phase of the substitutions."""
    K = z1.order
    n, p = z1.degree, z2.degree
    if n == 0 or p == 0 or n + p == 0:
        raise DegenerateDegrees("degrees n, p, n+p must all be nonzero")
    D = lcm(z1.D, z2.D)
    s1, s2 = D // z1.D, D // z2.D
    keys1 = dict.fromkeys((m, p, cd * s1) for (m, p, cd), _, _, _ in z1.row[0])
    keys2 = dict.fromkeys((m, p, cd * s2) for (m, p, cd), _, _, _ in z2.row[0])
    pairs = []
    for k1 in keys1:
        for k2 in keys2:
            num = k1[0] * p - k2[0] * n
            pairs.append((k1, k2, Fraction(num, n * (n + p)), Fraction(num, p * (n + p))))
    N = lcm(
        z1.N,
        z2.N,
        conductor([theta]),
        *[Fraction(k1[2] * r1.numerator, D * r1.denominator).denominator for k1, _, r1, _ in pairs],
        *[Fraction(k2[2] * q.numerator, D * q.denominator).denominator for _, k2, _, q in pairs],
    )
    th = phase_rows({0: theta}, N)[0]
    du = _scaled(th, n)
    rows1 = _coefficient_rows(z1.lifted(D, N))
    rows2 = _coefficient_rows(z2.lifted(D, N))
    left, right = {}, {}
    pieces = []
    for k1, k2, r1, q in pairs:
        (j, p1, cd1), (k, p2, cd2) = k1, k2
        wa = left.get((p1, cd1, r1))
        if wa is None:
            wa = left[p1, cd1, r1] = _subst(
                K, N, p1, Fraction(cd1, D), _ZERO_ROW, r1, _ZERO_ROW
            )
        wb = right.get((p2, cd2, q))
        if wb is None:
            wb = right[p2, cd2, q] = _subst(
                K, N, p2, Fraction(cd2, D), du, -q, _scaled(th, p * q)
            )
        a = _ymul(rows1[k1], wa, K, N)
        b = _ymul(rows2[k2], wb, K, N)
        m, cd = j + k, cd1 + cd2
        pieces.append(
            row_product(a, b, K, N, lambda x, y: (((m, x + y, cd), 1),))
        )
    return _ZakRow(K, n + p, _row(pieces), D, N)


def _coefficient_rows(row):
    """{key: the row of its coefficient, keyed by y-power 0} of a Zak
    row."""
    nums, den = row
    out = {}
    for (key, v, t, e), x in nums.items():
        part = out.get(key)
        if part is None:
            out[key] = ({(0, v, t, e): x}, den)
        else:
            part[0][0, v, t, e] = x
    return out


def zak_pair(f1, f2, theta):
    """Degree-additive pairing of Zak elements via affine substitutions.

    Slot m of the result collects products over slot splittings j+k=m,
    with f1 shifted by (jp-kn)/(n(n+p)) and f2 dilated by (1+n theta)
    and shifted by -(1-p theta)(jp-kn)/(p(n+p)).
    """
    if f1.order != f2.order:
        raise OrderMismatch(
            "series orders differ: %d vs %d" % (f1.order, f2.order)
        )
    theta = _check_theta(theta, f1.order)
    z = _pair_rows(_zak_row(f1), _zak_row(f2), theta)
    return _zak_element(f1, z)


# ---------------------------------------------------------------------------
# the heis-torus suite


def _rand_heis(order, rng, degree=None):
    data = {}
    for _ in range(2):
        m = rng.randint(-2, 2)
        n = degree if degree is not None else rng.randint(-2, 2)
        p = rng.randint(0, 2)
        c = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        coeff = Series(order, {k: rng.randint(-2, 2) for k in range(order + 1)})
        cur = data.get((m, n, p, c))
        data[(m, n, p, c)] = coeff if cur is None else cur + coeff
    return HeisElement(order, data)


def _rand_zak(order, degree, rng):
    data = {}
    for _ in range(2):
        key = (
            rng.randint(-1, 1),
            rng.randint(0, 2),
            Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])),
        )
        coeff = Series(order, {k: rng.randint(-2, 2) for k in range(order + 1)})
        cur = data.get(key)
        data[key] = coeff if cur is None else cur + coeff
    return ZakElement(order, degree, data)


def heis_torus_checks(rng, order, theta):
    order = 4 if order is None else order
    if theta is None:
        theta = Series.hbar(order)
    tau = TauLaurent.tau()

    U = HeisElement.monomial(order, m=1)
    V = HeisElement.monomial(order, 0, 0, 0, 1)
    uv = star(U, V, theta)
    vu = star(V, U, theta)
    resid = uv.sub(vu.scale(series_exp(theta * tau)))
    yield CheckOutcome.from_residual("uv-commutation", resid.term_count(), key_repr(resid))

    def reparam(n, th, a, b, c):
        # alpha_n(theta) makes (a, b, c) associative; no perturbation of it
        # keeps (U, t^n, V) so
        good = alpha(th, n)
        if not assoc_residual(a, b, c, th, good).is_zero():
            yield 1, "assoc at alpha_%d(theta)" % n
        mono = HeisElement.monomial(order, 0, n)
        for j in (1, 2, order):
            perturbed = good + Series.hbar(order, power=j)
            if assoc_residual(U, mono, V, th, perturbed).is_zero():
                yield 1, "perturbation h^%d unseen" % j

    for n in (-2, -1, 1, 2):
        for tag, terms in (("h", {1: 1}), ("h+h^2", {1: 1, 2: 1})):
            th = Series(order, terms)
            a = _rand_heis(order, rng)
            b = _rand_heis(order, rng, degree=n)
            c = _rand_heis(order, rng)
            yield CheckOutcome.tally(
                "reparam-iff:n=%d:theta=%s" % (n, tag), reparam(n, th, a, b, c)
            )

    t5 = Series(5, {1: 1, 2: Fraction(1, 3)})
    yield CheckOutcome.tally("alpha-composition-order5", (
        (1, "j=%d,k=%d" % (j, k)) for j in (-2, 1, 3) for k in (-1, 2)
        if alpha(alpha(t5, k), j) != alpha(t5, j + k)
    ))

    for n in (1, 2):
        f = _rand_zak(order, n, rng)
        lhs = zak_act_left("UV", f, theta)
        rhs = zak_act_left("VU", f, theta)
        resid = lhs.sub(rhs.scale(series_exp(alpha(theta, n) * tau)))
        yield CheckOutcome.from_residual(
            "zak-left-commutation:n=%d" % n, resid.term_count(), key_repr(resid)
        )
        f2 = _rand_zak(order, n, rng)
        lhs = zak_act_right("UV", f2, theta)
        rhs = zak_act_right("VU", f2, theta)
        resid = lhs.sub(rhs.scale(series_exp(theta * tau)))
        yield CheckOutcome.from_residual(
            "zak-right-commutation:n=%d" % n, resid.term_count(), key_repr(resid)
        )

    # the pairing checks compose actions and pairings on Zak rows and
    # compare the two sides by their reduced difference
    t3 = Series.hbar(3)
    h1 = _rand_zak(3, 1, rng)
    h2 = _rand_zak(3, 1, rng)
    that = alpha(t3, -1)
    z1, z2 = _zak_row(h1), _zak_row(h2)
    yield CheckOutcome.tally("pairing-balanced", (
        (1, w) for w in ("U", "V", "UV", "VU")
        if _rows_differ(
            _pair_rows(_word_rows(w, z1, t3, "right"), z2, t3),
            _pair_rows(z1, _word_rows(w, z2, that, "left"), t3),
        )
    ))

    def bimodule():
        pair = _pair_rows(z1, z2, t3)
        for w in ("U", "V", "UV"):
            if _rows_differ(
                _word_rows(w, pair, that, "left"),
                _pair_rows(_word_rows(w, z1, t3, "left"), z2, t3),
            ):
                yield 1, "%s:left" % w
            if _rows_differ(
                _word_rows(w, pair, that, "right"),
                _pair_rows(z1, _word_rows(w, z2, that, "right"), t3),
            ):
                yield 1, "%s:right" % w

    yield CheckOutcome.tally("pairing-bimodule", bimodule())

    thp = alpha(theta, 1)
    a = _rand_heis(order, rng, degree=0)
    b = _rand_heis(order, rng, degree=0)
    f = _rand_heis(order, rng, degree=1)
    yield CheckOutcome.tally("monomial-bimodule", (
        (1, tag) for tag, x, y, z, t, tp in (
            ("a*f*b", a, f, b, theta, thp),
            ("a*b*f", a, b, f, thp, thp),
            ("f*a*b", f, a, b, theta, theta),
        )
        if not assoc_residual(x, y, z, t, tp).is_zero()
    ))

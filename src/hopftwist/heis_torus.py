"""Deformation of function algebras on the Heisenberg nilmanifold.

Functions are finite sums of monomials  coeff * e^{2pi i(mx+nt)} y^p e^{2pi i c y}
with integer windings m, n, a nonnegative y-power p and a rational
y-frequency c.  The t-winding n is the grading degree.  The deformed
product is the truncated exponential star product along the invariant
vector fields X = d_x + y d_t and Y = d_y; the deformation parameter is
a formal series with zero constant term, and tau = 2 pi i stays formal.
Sums and scalings, here and on the Zak side, are those of
scalars.SeriesSum.

The star product runs on phase rows (see scalars) at the conductor of
both factors and theta: a monomial key becomes (m, n, p, c * D) with D
the lcm of the frequency denominators of both factors, so row keys are
integers.  The vector fields act on rows: X shifts the tau power and
multiplies by m or n, Y multiplies by p * D or by c * D over the
denominator times D.  Each term of the sum is the row of (theta/tau)^k /
k! times X^k a, times Y^k b, and the terms are summed as rows; the result
builds one Series per monomial.

Generalized associativity mixes two parameters: (a *_t' b) *_t c equals
a *_t' (b *_t c) exactly when t' = alpha_n(t) for n the degree of b,
with alpha_k(t) = t / (1 + k t) the integer reparametrization action.

The Zak side models each nonzero degree as a module of sequences
f(y; m) of y-monomials indexed by integer slots m, with generator
actions U, V of the deformed torus on both sides and a degree-additive
pairing given by exact affine substitutions in y.  One action or pairing
call runs on phase rows (see scalars) at one conductor N: the lcm of the
conductors of the values and theta and of the denominators of every
phase e^{2 pi i c r} and e^{-2 pi i m/n} it meets.  Each substitution is
a polynomial in y with phase-row coefficients, keyed by y-power and
memoized per (y-power, frequency, shift) within the call; the output row
is keyed by (slot, y-power, frequency * D) with D the lcm of the
frequency denominators, and builds one Series per key of the result.

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
    return lcm(*[k[3].denominator for f in elements for k in f.data])


def _rows(f, D, N):
    """Phase row of f at conductor N, each frequency c keyed as c * D."""
    return phase_rows(
        {(m, n, p, c.numerator * (D // c.denominator)): s for (m, n, p, c), s in f.data.items()},
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


def _element(f, row, D, N):
    """The HeisElement at f's order of a canonical phase row keyed as in
    _rows."""
    return f._raw(_freq_keys(phase_values(row, f.order, N), D))


def _put(out, idx, x):
    r = out.get(idx)
    out[idx] = x if r is None else r + x


def _field_x(row, D):
    """X = d_x + y d_t: tau * (m + n y) on each monomial."""
    nums, den = row
    out = {}
    for (key, v, t, e), x in nums.items():
        m, n, p, c = key
        if m:
            _put(out, (key, v, t + 1, e), x * m)
        if n:
            _put(out, ((m, n, p + 1, c), v, t + 1, e), x * n)
    return _row([(out, den)])


def _field_y(row, D):
    """Y = d_y: p y^(p-1) + tau * c y^p on each monomial, over den * D."""
    nums, den = row
    out = {}
    for (key, v, t, e), x in nums.items():
        m, n, p, c = key
        if p:
            _put(out, ((m, n, p - 1, c), v, t, e), x * (p * D))
        if c:
            _put(out, (key, v, t + 1, e), x * c)
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


def _scalar_product(k1, k2):
    return ((k2, 1),)


def star(a, b, theta):
    """Truncated star product  sum_k (1/k!) (theta/tau)^k (X^k a)(Y^k b).

    One pass on phase rows (see the module docstring): X^k a, Y^k b and
    the factor (theta/tau)^k / k! are rows, and each term of the sum is two
    row products."""
    a._compat(b)
    order = a.order
    theta = _check_theta(theta, order)
    D = _freq_den(a, b)
    N = conductor([*a.data.values(), *b.data.values(), theta])
    xa, yb = _rows(a, D, N), _rows(b, D, N)
    (lnums, lden), _ = phase_rows({(): theta}, N)
    lam = {(key, v, t - 1, e): x for (key, v, t, e), x in lnums.items()}, lden
    pieces = [row_product(xa, yb, order, N, _monomial_product)]
    coef = ({((), 0, 0, 0): 1}, 1)
    for k in range(1, order + 1):
        xa = _field_x(xa, D)
        yb = _field_y(yb, D)
        nums, den = row_product(coef, lam, order, N, _scalar_product)
        coef = _row([(nums, den * k)])
        if not (coef[0] and xa[0] and yb[0]):
            break
        scaled = row_product(coef, xa, order, N, _scalar_product)
        pieces.append(row_product(scaled, yb, order, N, _monomial_product))
    return _element(a, _row(pieces), D, N)


def alpha(theta, k):
    """The integer action theta |-> theta / (1 + k theta) on parameters."""
    if not isinstance(theta, Series):
        raise ValueError("deformation parameter must be a series")
    theta = _check_theta(theta, theta.order)
    return theta * (Series.one(theta.order) + theta * k).inverse()


def assoc_residual(a, b, c, theta, theta_p):
    """(a *_t' b) *_t c  -  a *_t' (b *_t c); zero exactly when
    t' = alpha_n(t) with n the degree of the homogeneous middle factor."""
    if not b.is_homogeneous():
        raise NotHomogeneous("middle factor mixes degrees %r" % (b.degrees(),))
    lhs = star(star(a, b, theta_p), c, theta)
    rhs = star(a, star(b, c, theta), theta_p)
    return lhs.sub(rhs)


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
    out = _root(x.numerator * (N // x.denominator) % N)
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


def _act_once(letter, f, theta, side):
    order, n = f.order, f.degree
    D = lcm(*[c.denominator for _, _, c in f.data])
    pieces = []
    if letter == "U":
        # slot shifts by one; left actions also shift y by the
        # reparametrized angle alpha_n(theta)
        r = -Fraction(1, n)
        sigma = alpha(theta, n) if side == "left" else Series.zero(order)
        N = lcm(
            conductor([*f.data.values(), sigma]),
            *[(c * r).denominator for _, _, c in f.data],
        )
        sig = phase_rows({0: sigma}, N)[0]
        memo = {}
        for (m, p, c), s in f.data.items():
            w = memo.get((p, c))
            if w is None:
                w = memo[p, c] = _subst(order, N, p, c, _ZERO_ROW, r, sig)
            cd = c.numerator * (D // c.denominator)
            pieces.append(
                row_product(
                    phase_rows({0: s}, N)[0], w, order, N,
                    lambda _, j: (((m + 1, j, cd), 1),),
                )
            )
    elif letter == "V":
        N = lcm(n, conductor([*f.data.values(), theta]))
        if side == "right":
            # e^{2 pi i n theta y} expands into extra y powers
            arg = _scaled(phase_rows({0: theta}, N)[0], n, y=1, t=1)
            g = row_exp(arg, _root(0), order, N, _ypow)
        else:
            g = _root(0)
        for (m, p, c), s in f.data.items():
            rot = _root(-m * (N // n) % N)
            cd = (c.numerator + c.denominator) * (D // c.denominator)
            pieces.append(
                row_product(
                    _ymul(phase_rows({0: s}, N)[0], rot, order, N), g, order, N,
                    lambda _, t: (((m, p + t, cd), 1),),
                )
            )
    else:
        raise ValueError("words are over the letters U and V")
    values = phase_values(_row(pieces), order, N)
    return f._raw(_freq_keys(values, D))


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
    order = f1.order
    theta = _check_theta(theta, order)
    n, p = f1.degree, f2.degree
    if n == 0 or p == 0 or n + p == 0:
        raise DegenerateDegrees("degrees n, p, n+p must all be nonzero")
    pairs = []
    for k1 in f1.data:
        for k2 in f2.data:
            num = k1[0] * p - k2[0] * n
            pairs.append(
                (k1, k2, Fraction(num, n * (n + p)), Fraction(num, p * (n + p)))
            )
    N = lcm(
        conductor([*f1.data.values(), *f2.data.values(), theta]),
        *[(k1[2] * r1).denominator for k1, _, r1, _ in pairs],
        *[(k2[2] * q).denominator for _, k2, _, q in pairs],
    )
    D = lcm(*[c.denominator for f in (f1, f2) for _, _, c in f.data])
    th = phase_rows({0: theta}, N)[0]
    du = _scaled(th, n)
    rows1 = {k: phase_rows({0: s}, N)[0] for k, s in f1.data.items()}
    rows2 = {k: phase_rows({0: s}, N)[0] for k, s in f2.data.items()}
    left, right = {}, {}
    pieces = []
    for (j, p1, c1), (k, p2, c2), r1, q in pairs:
        wa = left.get((p1, c1, r1))
        if wa is None:
            wa = left[p1, c1, r1] = _subst(
                order, N, p1, c1, _ZERO_ROW, r1, _ZERO_ROW
            )
        wb = right.get((p2, c2, q))
        if wb is None:
            wb = right[p2, c2, q] = _subst(
                order, N, p2, c2, du, -q, _scaled(th, p * q)
            )
        a = _ymul(rows1[j, p1, c1], wa, order, N)
        b = _ymul(rows2[k, p2, c2], wb, order, N)
        m = j + k
        cd = ((c1 + c2) * D).numerator
        pieces.append(
            row_product(a, b, order, N, lambda x, y: (((m, x + y, cd), 1),))
        )
    values = phase_values(_row(pieces), order, N)
    return f1._raw(_freq_keys(values, D), degree=n + p)


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

    t3 = Series.hbar(3)
    h1 = _rand_zak(3, 1, rng)
    h2 = _rand_zak(3, 1, rng)
    that = alpha(t3, -1)
    yield CheckOutcome.tally("pairing-balanced", (
        (1, w) for w in ("U", "V", "UV", "VU")
        if zak_pair(zak_act_right(w, h1, t3), h2, t3)
        != zak_pair(h1, zak_act_left(w, h2, that), t3)
    ))

    def bimodule():
        for w in ("U", "V", "UV"):
            if zak_act_left(w, zak_pair(h1, h2, t3), that) != zak_pair(
                zak_act_left(w, h1, t3), h2, t3
            ):
                yield 1, "%s:left" % w
            if zak_act_right(w, zak_pair(h1, h2, t3), that) != zak_pair(
                h1, zak_act_right(w, h2, that), t3
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

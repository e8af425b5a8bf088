"""Truncated enveloping algebra of a one-relator nilpotent Lie algebra.

Generators X, Y, T with [X, Y] = kappa*T and T central, kappa in {+1, -1, 0}.
Elements are sparse sums of normal-ordered monomials X^a Y^b T^c with
hbar-truncated Series coefficients.  Tensor powers carry the same leg
calculus as LegTensor (legwise products, primitive coproducts, unit
embeddings), so the coboundary engine (cochain_engine) applies unchanged.

Products and exponentials run on phase rows (see scalars) at the
conductor of their values, so Moyal's i*hbar is integers too: one row
product forms every pair of keys, and the result builds one Series per
key; pbw_exp is one row_exp, its powers kept as rows until the sum is
done.  Sums, negations and scalings are those of scalars.SeriesSum, on
the Series values.  The product of two monomials is memoized per (kappa,
t1, t2) as (triple, integer) pairs, and a tensor key product is the
legwise product of those.

Exponentials exist for arguments whose every coefficient has positive
hbar valuation; each hbar-coefficient of the sum is then a finite sum.
"""

from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, factorial, prod

from .cochain_engine import coboundary, coboundary_pair
from .errors import (
    ArityMismatch,
    BadLeg,
    BadPositions,
    NonNilpotent,
    NotInvertible,
    OrderMismatch,
)
from .reporting import CheckOutcome, key_repr
from .scalars import (
    ScalarRing,
    Series,
    SeriesSum,
    TauLaurent,
    _row,
    accumulate,
    phase_rows,
    phase_values,
    root_of_unity,
    row_exp,
    row_product,
    theta_ok,
)

_ZERO3 = (0, 0, 0)


_MONO = {}


def _mono_mul(kappa, t1, t2):
    """(X^a1 Y^b1 T^c1)(X^a2 Y^b2 T^c2) in normal order.

    Moving X^a2 through Y^b1 contracts k pairs via [X, Y] = kappa*T: a
    tuple of ((a, b, c), integer) pairs, memoized per (kappa, t1, t2).
    """
    hit = _MONO.get((kappa, t1, t2))
    if hit is None:
        a1, b1, c1 = t1
        a2, b2, c2 = t2
        kmax = 0 if kappa == 0 else min(b1, a2)
        hit = _MONO[kappa, t1, t2] = tuple(
            (
                (a1 + a2 - k, b1 + b2 - k, c1 + c2 + k),
                factorial(k) * comb(a2, k) * comb(b1, k) * (-kappa) ** k,
            )
            for k in range(kmax + 1)
        )
    return hit


def _tensor_mono_mul(kappa, k1, k2):
    """Legwise product of two tensor keys as (key, integer) pairs."""
    out = []
    for terms in product(*map(_mono_mul, (kappa,) * len(k1), k1, k2)):
        key, qs = zip(*terms)
        out.append((key, prod(qs)))
    return out


def _product(K, a, b, keymul):
    """{key: Series} of the product of two {key: Series} dicts of order K
    whose keys multiply by keymul, formed on phase rows at the conductor of
    their values."""
    A, N = phase_rows(a)
    B, M = phase_rows(b, N)
    if M != N:
        A, N = phase_rows(a, M)
    return phase_values(_row([row_product(A, B, K, N, keymul)]), K, N)


def _check_compat(x, y):
    if x.kappa != y.kappa:
        raise ValueError("bracket constants differ: %r vs %r" % (x.kappa, y.kappa))
    if x.order != y.order:
        raise OrderMismatch(
            "truncation orders differ: %d vs %d" % (x.order, y.order)
        )


class PBWElement(SeriesSum):
    """Sparse normal-form element keyed by exponent triples (a, b, c)."""

    __slots__ = ("kappa",)

    def __init__(self, kappa, order, data):
        if kappa not in (1, -1, 0):
            raise ValueError("bracket constant must be +1, -1 or 0")
        self.kappa = kappa
        self.order = order
        coerce = ScalarRing(order).coerce
        store = {}
        for key, v in data.items():
            a, b, c = key
            key = (int(a), int(b), int(c))
            if min(key) < 0:
                raise ValueError("negative exponent in %r" % (key,))
            accumulate(store, key, coerce(v))
        self.data = store

    @staticmethod
    def unit(kappa, order):
        return PBWElement(kappa, order, {_ZERO3: 1})

    @staticmethod
    def gen(kappa, order, name, coeff=1):
        triple = {"X": (1, 0, 0), "Y": (0, 1, 0), "T": (0, 0, 1)}[name]
        return PBWElement(kappa, order, {triple: coeff})

    def unit_like(self):
        return PBWElement.unit(self.kappa, self.order)

    _compat = _check_compat

    def _key_product(self):
        return partial(_mono_mul, self.kappa)

    def mul(self, other):
        _check_compat(self, other)
        return self._raw(
            _product(self.order, self.data, other.data, self._key_product())
        )

    def counit(self):
        s = self.data.get(_ZERO3)
        return Series.zero(self.order) if s is None else s

    def antipode(self):
        """Anti-homomorphism with S(W) = -W on the generators."""
        store = {}
        for (a, b, c), s in self.data.items():
            sign = Fraction(-1) ** (a + b + c)
            # reversed word T^c Y^b X^a back to normal order
            flipped = PBWElement(self.kappa, self.order, {(0, b, c): 1}).mul(
                PBWElement(self.kappa, self.order, {(a, 0, 0): 1})
            )
            for key, v in flipped.data.items():
                accumulate(store, key, s * v * sign)
        return self._raw(store)

    def __repr__(self):
        return "PBWElement(kappa=%d, order=%d, %d terms)" % (
            self.kappa,
            self.order,
            len(self.data),
        )


def pbw_exp(x):
    """Truncated exponential sum_n x^n / n!, every term of hbar valuation
    >= 1: one scalars.row_exp of the row of x."""
    for s in x.data.values():
        v = s.valuation()
        if v is not None and v < 1:
            raise NonNilpotent("exponent has an hbar-degree-0 part")
    K = x.order
    (unit,) = x.unit_like().data
    step, N = phase_rows(x.data)
    one = ({(unit, 0, 0, 0): 1}, 1)
    return x._raw(phase_values(row_exp(step, one, K, N, x._key_product()), K, N))


class PBWTensor(SeriesSum):
    """Tensor power keyed by tuples of exponent triples, one per leg."""

    __slots__ = ("kappa", "arity")

    def __init__(self, kappa, order, arity, data):
        if kappa not in (1, -1, 0):
            raise ValueError("bracket constant must be +1, -1 or 0")
        if arity < 1:
            raise ArityMismatch("arity must be positive")
        self.kappa = kappa
        self.order = order
        self.arity = arity
        coerce = ScalarRing(order).coerce
        store = {}
        for key, v in data.items():
            key = tuple(tuple(int(e) for e in t) for t in key)
            if len(key) != arity:
                raise ArityMismatch(
                    "key %r has %d legs, expected %d" % (key, len(key), arity)
                )
            for t in key:
                if len(t) != 3 or min(t) < 0:
                    raise ValueError("bad exponent triple %r" % (t,))
            accumulate(store, key, coerce(v))
        self.data = store

    @staticmethod
    def unit(kappa, order, arity):
        return PBWTensor(kappa, order, arity, {(_ZERO3,) * arity: 1})

    @staticmethod
    def from_element(x, arity=1):
        return PBWTensor(x.kappa, x.order, arity, {}) if not x.data else PBWTensor(
            x.kappa, x.order, arity, {(k,) + (_ZERO3,) * (arity - 1): s for k, s in x.data.items()}
        )

    def unit_like(self):
        return PBWTensor.unit(self.kappa, self.order, self.arity)

    def _compat(self, other):
        _check_compat(self, other)
        if self.arity != other.arity:
            raise ArityMismatch(
                "arities differ: %d vs %d" % (self.arity, other.arity)
            )

    def _key_product(self):
        return partial(_tensor_mono_mul, self.kappa)

    def mul(self, other):
        self._compat(other)
        return self._raw(
            _product(self.order, self.data, other.data, self._key_product())
        )

    def leg_embed(self, positions, arity_out):
        positions = tuple(positions)
        if len(positions) != self.arity:
            raise BadPositions(
                "%d positions for arity %d" % (len(positions), self.arity)
            )
        if list(positions) != sorted(set(positions)):
            raise BadPositions("positions must be strictly increasing")
        if positions and (positions[0] < 0 or positions[-1] >= arity_out):
            raise BadPositions("position out of range for arity %d" % arity_out)
        store = {}
        for key, s in self.data.items():
            new = [_ZERO3] * arity_out
            for src, dst in enumerate(positions):
                new[dst] = key[src]
            accumulate(store, tuple(new), s)
        return self._raw(store, arity=arity_out)

    def coproduct_leg(self, leg):
        if not 0 <= leg < self.arity:
            raise BadLeg("leg %d out of range" % leg)
        store = {}
        for key, s in self.data.items():
            for (tl, tr), q in _delta_mono(self.kappa, self.order, key[leg]):
                new = key[:leg] + (tl, tr) + key[leg + 1 :]
                accumulate(store, new, s * q)
        return self._raw(store, arity=self.arity + 1)

    def counit_leg(self, leg):
        if not 0 <= leg < self.arity:
            raise BadLeg("leg %d out of range" % leg)
        if self.arity == 1:
            raise BadLeg("cannot drop the last leg")
        store = {}
        for key, s in self.data.items():
            if key[leg] == _ZERO3:
                accumulate(store, key[:leg] + key[leg + 1 :], s)
        return self._raw(store, arity=self.arity - 1)

    def invert(self):
        """Inverse when the tensor is a unit multiple plus hbar-positive rest."""
        u = self.data.get((_ZERO3,) * self.arity)
        if u is None:
            raise NotInvertible("no coefficient on the identity key")
        rest = self.sub(self.unit_like().scale(u))
        for s in rest.data.values():
            v = s.valuation()
            if v is not None and v < 1:
                raise NotInvertible(
                    "non-identity terms must have positive hbar valuation"
                )
        try:
            uinv = u.inverse()
        except Exception:
            raise NotInvertible("identity coefficient is not a unit")
        n = rest.scale(uinv).neg()
        out = self.unit_like()
        term = self.unit_like()
        for _ in range(self.order):
            term = term.mul(n)
            if term.is_zero():
                break
            out = out.add(term)
        return out.scale(uinv)

    def __repr__(self):
        return "PBWTensor(kappa=%d, order=%d, arity=%d, %d terms)" % (
            self.kappa,
            self.order,
            self.arity,
            len(self.data),
        )


_DELTA_CACHE = {}


def _delta_mono(kappa, order, triple):
    """Coproduct of one monomial as ((left, right), rational) pairs.

    Delta is multiplicative and the generators are primitive, so the
    expansion is Delta(X)^a Delta(Y)^b Delta(T)^c in the tensor square.
    """
    key = (kappa, order, triple)
    hit = _DELTA_CACHE.get(key)
    if hit is not None:
        return hit
    a, b, c = triple
    acc = PBWTensor.unit(kappa, order, 2)
    for name, power in (("X", a), ("Y", b), ("T", c)):
        if not power:
            continue
        g = {"X": (1, 0, 0), "Y": (0, 1, 0), "T": (0, 0, 1)}[name]
        prim = PBWTensor(
            kappa, order, 2, {(g, _ZERO3): 1, (_ZERO3, g): 1}
        )
        for _ in range(power):
            acc = acc.mul(prim)
    out = []
    for (tl, tr), s in acc.data.items():
        # binomial-type expansions stay rational with no hbar shift
        q = s.coeffs[0].terms.get(0)
        out.append(((tl, tr), Fraction(q) if not isinstance(q, Fraction) else q))
    _DELTA_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# shipped identities


def bch_report(kappa, order):
    """e^{hX} e^{hY} = e^{(kappa/2) h^2 T} e^{h(X+Y)}, exactly."""
    h = Series.hbar(order)
    ex = pbw_exp(PBWElement(kappa, order, {(1, 0, 0): h}))
    ey = pbw_exp(PBWElement(kappa, order, {(0, 1, 0): h}))
    lhs = ex.mul(ey)
    central = pbw_exp(
        PBWElement(
            kappa, order, {(0, 0, 1): Series.hbar(order, power=2, coeff=Fraction(kappa, 2))}
        )
    )
    diag = pbw_exp(PBWElement(kappa, order, {(1, 0, 0): h, (0, 1, 0): h}))
    rhs = central.mul(diag)
    resid = lhs.sub(rhs)
    return CheckOutcome.from_residual(
        "bch-order-%d" % order, resid.term_count(), key_repr(resid)
    )


def heisenberg_counterexample(order, kappa=1):
    """Second coboundary of e^{hX} (x) e^{hY} next to its closed form.

    Returns (lhs, rhs): lhs is the computed double coboundary, rhs is
    1 (x) e^{kappa h^2 T} (x) e^{kappa h^2 T} (x) 1.  They agree, and for
    kappa = +1 both differ from the unit: the coboundary of a coboundary
    need not be trivial when the host is noncommutative.
    """
    if order < 2:
        raise ValueError("needs truncation order >= 2")
    h = Series.hbar(order)
    expo = PBWTensor(
        kappa, order, 2, {((1, 0, 0), _ZERO3): h, (_ZERO3, (0, 1, 0)): h}
    )
    c = pbw_exp(expo)
    cinv = pbw_exp(expo.neg())
    d1, d1inv = coboundary_pair(c, cinv)
    dd = coboundary(d1, d1inv)
    h2 = Series.hbar(order, power=2, coeff=kappa)
    rhs_expo = PBWTensor(
        kappa,
        order,
        4,
        {
            (_ZERO3, (0, 0, 1), _ZERO3, _ZERO3): h2,
            (_ZERO3, _ZERO3, (0, 0, 1), _ZERO3): h2,
        },
    )
    return dd, pbw_exp(rhs_expo)


def _lam(theta, order):
    if not isinstance(theta, Series) or theta.order != order:
        raise OrderMismatch("theta must be a Series at the working order")
    if not theta_ok(theta):
        raise NonNilpotent("theta needs a vanishing constant term")
    return theta * TauLaurent.tau(-1)


def gcl_twist_pair(theta, order):
    """F_theta = exp(-theta tau^{-1} X (x) Y) with its inverse; kappa = -1."""
    lam = _lam(theta, order)
    key = ((1, 0, 0), (0, 1, 0))
    F = pbw_exp(PBWTensor(-1, order, 2, {key: -lam}))
    Finv = pbw_exp(PBWTensor(-1, order, 2, {key: lam}))
    return F, Finv


def gcl_coassociator(theta, theta_p, order):
    """Mixed coassociator for the angle-dependent twists; kappa = -1.

    Checks (Delta(x)id)(F_theta^-1) (F_theta'^-1 (x) 1)
         = (id(x)Delta)(F_theta'^-1) (1 (x) F_theta^-1) Phi
    with Phi = exp{tau^-1 (theta-theta') X(x)1(x)Y
                   - tau^-2 theta theta' X(x)T(x)Y}
    and returns Phi.
    """
    lam = _lam(theta, order)
    lamp = _lam(theta_p, order)
    _, Finv_t = gcl_twist_pair(theta, order)
    _, Finv_p = gcl_twist_pair(theta_p, order)
    lhs = Finv_t.coproduct_leg(0).mul(Finv_p.leg_embed((0, 1), 3))
    rhs0 = Finv_p.coproduct_leg(1).mul(Finv_t.leg_embed((1, 2), 3))
    phi = pbw_exp(
        PBWTensor(
            -1,
            order,
            3,
            {
                ((1, 0, 0), _ZERO3, (0, 1, 0)): lam - lamp,
                ((1, 0, 0), (0, 0, 1), (0, 1, 0)): -(lam * lamp),
            },
        )
    )
    if not lhs.eq(rhs0.mul(phi)):
        raise RuntimeError("coassociator identity failed at order %d" % order)
    return phi


def gcl_cocycle_report(theta, order):
    """Coboundary of F_theta against the unit; fails for theta != 0."""
    F, Finv = gcl_twist_pair(theta, order)
    val = coboundary(F, Finv)
    resid = val.sub(PBWTensor.unit(-1, order, 3))
    return CheckOutcome.from_residual(
        "gcl-cocycle", resid.term_count(), key_repr(resid)
    )


def gcl_equivariance_report(theta, order):
    """Whether Phi_{theta,theta} commutes with the triple coproducts of
    the generators; fails on X and Y for theta != 0."""
    phi = gcl_coassociator(theta, theta, order)

    def failures():
        for name, g in (("X", (1, 0, 0)), ("Y", (0, 1, 0)), ("T", (0, 0, 1))):
            keys = ((g, _ZERO3, _ZERO3), (_ZERO3, g, _ZERO3), (_ZERO3, _ZERO3, g))
            d3 = PBWTensor(-1, order, 3, dict.fromkeys(keys, 1))
            if not phi.mul(d3).eq(d3.mul(phi)):
                yield 1, name

    return CheckOutcome.tally("gcl-equivariance", failures())


def moyal_suite(order):
    """Flat-primitive checks: the bilinear twist is a cocycle, the stated
    gauge moves it onto its antisymmetric form, and the symmetric variant
    is a cocycle too.  kappa = 0 throughout."""
    i = root_of_unity(1, 4)
    ih = Series.hbar(order, coeff=i)
    key12 = ((1, 0, 0), (0, 1, 0))
    F = pbw_exp(PBWTensor(0, order, 2, {key12: ih}))
    Finv = pbw_exp(PBWTensor(0, order, 2, {key12: -ih}))
    val = coboundary(F, Finv)
    resid = val.sub(PBWTensor.unit(0, order, 3))
    yield CheckOutcome.from_residual("moyal-cocycle", resid.term_count(), key_repr(resid))

    half = i * Fraction(1, 2)
    g = pbw_exp(PBWTensor(0, order, 1, {((1, 1, 0),): Series.hbar(order, coeff=half)}))
    ginv = pbw_exp(
        PBWTensor(0, order, 1, {((1, 1, 0),): Series.hbar(order, coeff=-half)})
    )
    gg = g.leg_embed((0,), 2).mul(g.leg_embed((1,), 2))
    moved = gg.mul(F).mul(ginv.coproduct_leg(0))
    hh = Series.hbar(order, coeff=half)
    target = pbw_exp(
        PBWTensor(
            0, order, 2, {key12: hh, ((0, 1, 0), (1, 0, 0)): -hh}
        )
    )
    resid = moved.sub(target)
    yield CheckOutcome.from_residual("moyal-gauge", resid.term_count(), key_repr(resid))

    key11 = ((1, 0, 0), (1, 0, 0))
    F2 = pbw_exp(PBWTensor(0, order, 2, {key11: ih}))
    F2inv = pbw_exp(PBWTensor(0, order, 2, {key11: -ih}))
    val2 = coboundary(F2, F2inv)
    resid = val2.sub(PBWTensor.unit(0, order, 3))
    yield CheckOutcome.from_residual(
        "moyal-symmetric-cocycle", resid.term_count(), key_repr(resid)
    )

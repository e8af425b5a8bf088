"""Normal-form engine for [X,Y] = kappa T with T central, plus the
truncated-exponential identities built on it."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist.errors import NonNilpotent, NotInvertible, OrderMismatch
from hopftwist.pbw import (
    PBWElement,
    PBWTensor,
    bch_report,
    gcl_coassociator,
    gcl_cocycle_report,
    gcl_equivariance_report,
    gcl_twist_pair,
    heisenberg_counterexample,
    moyal_suite,
    pbw_exp,
)
from hopftwist.scalars import Series, TauLaurent, root_of_unity


# Oracle: normal-order a word over letters X, Y, T by single swaps
# Y X -> X Y - kappa T, everything else commuting.  Words are tuples of
# letters; states are dicts word -> Fraction.
def _normalize(kappa, states):
    out = {}
    work = dict(states)
    while work:
        word, coeff = work.popitem()
        for i in range(len(word) - 1):
            if word[i] == "Y" and word[i + 1] == "X":
                sw = word[:i] + ("X", "Y") + word[i + 2 :]
                work[sw] = work.get(sw, Fraction(0)) + coeff
                tw = word[:i] + ("T",) + word[i + 2 :]
                work[tw] = work.get(tw, Fraction(0)) - kappa * coeff
                break
            if word[i] == "T" and word[i + 1] in ("X", "Y"):
                sw = word[:i] + (word[i + 1], "T") + word[i + 2 :]
                work[sw] = work.get(sw, Fraction(0)) + coeff
                break
        else:
            canon = tuple(sorted(word, key="XYT".index))
            out[canon] = out.get(canon, Fraction(0)) + coeff
        work = {w: c for w, c in work.items() if c}
    return {w: c for w, c in out.items() if c}


def _word(triple):
    a, b, c = triple
    return ("X",) * a + ("Y",) * b + ("T",) * c


def _triple(word):
    return (word.count("X"), word.count("Y"), word.count("T"))


def oracle_mul(kappa, t1, t2):
    res = _normalize(kappa, {_word(t1) + _word(t2): Fraction(1)})
    return {_triple(w): c for w, c in res.items()}


def elem_to_plain(x):
    out = {}
    for key, s in x.data.items():
        c = s.coeffs[0].terms.get(0, Fraction(0))
        out[key] = Fraction(c)
    return out


def test_single_swap_against_closed_form():
    rng = random.Random(50)
    for kappa in (1, -1, 0):
        for _ in range(12):
            t1 = tuple(rng.randrange(3) for _ in range(3))
            t2 = tuple(rng.randrange(3) for _ in range(3))
            x = PBWElement(kappa, 0, {t1: 1})
            y = PBWElement(kappa, 0, {t2: 1})
            assert elem_to_plain(x.mul(y)) == oracle_mul(kappa, t1, t2)


# Reference: the per-pair Series loop that PBWElement.mul and PBWTensor.mul
# ran before they moved to term rows, one Series product per pair of keys.
def reference_mono_mul(kappa, t1, t2):
    a1, b1, c1 = t1
    a2, b2, c2 = t2
    kmax = 0 if kappa == 0 else min(b1, a2)
    for k in range(kmax + 1):
        coeff = Fraction(factorial(k) * comb(a2, k) * comb(b1, k) * (-kappa) ** k)
        yield (a1 + a2 - k, b1 + b2 - k, c1 + c2 + k), coeff


def reference_mul(x, y):
    tensor = isinstance(x, PBWTensor)
    store = {}
    for k1, s1 in x.data.items():
        for k2, s2 in y.data.items():
            s12 = s1 * s2
            partial = [((), Fraction(1))]
            for t1, t2 in zip(k1, k2) if tensor else [(k1, k2)]:
                partial = [
                    (prefix + (t,), q * q2)
                    for prefix, q in partial
                    for t, q2 in reference_mono_mul(x.kappa, t1, t2)
                ]
            for key, q in partial:
                key = key if tensor else key[0]
                prev = store.get(key)
                r = s12 * q if prev is None else prev + s12 * q
                if r.is_zero():
                    store.pop(key, None)
                else:
                    store[key] = r
    return store


# coefficient series: rational, rational with tau powers, or cyclotomic
# (a rational times a root of unity of order 3 or 4) with tau powers
KINDS = ("rational", "tau", "cyclotomic")
RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
CYCLOTOMICS = st.builds(
    lambda q, e, n: root_of_unity(e, n) * q,
    RATIONALS,
    st.integers(0, 3),
    st.sampled_from([3, 4]),
)
TRIPLES = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def series_of(kind, order, lowest=0):
    taus = st.just(0) if kind == "rational" else st.integers(-1, 1)
    values = CYCLOTOMICS if kind == "cyclotomic" else RATIONALS
    terms = st.dictionaries(taus, values, min_size=1, max_size=2)
    degrees = st.integers(lowest, order)
    return st.dictionaries(degrees, terms, min_size=1, max_size=3).map(
        lambda d: Series(order, {v: TauLaurent(t) for v, t in d.items()})
    )


def data_of(keys, kind, order, lowest=0):
    return st.dictionaries(
        keys, series_of(kind, order, lowest), min_size=1, max_size=4
    )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([-1, 0, 1]),
    st.integers(1, 3),
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.data(),
)
def test_tensor_mul_matches_the_per_pair_loop(kappa, arity, ka, kb, data):
    order = 2
    keys = st.tuples(*[TRIPLES] * arity)
    x = PBWTensor(kappa, order, arity, data.draw(data_of(keys, ka, order)))
    y = PBWTensor(kappa, order, arity, data.draw(data_of(keys, kb, order)))
    assert x.mul(y).data == reference_mul(x, y)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([-1, 0, 1]),
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.data(),
)
def test_element_mul_matches_the_per_pair_loop(kappa, ka, kb, data):
    order = 2
    x = PBWElement(kappa, order, data.draw(data_of(TRIPLES, ka, order)))
    y = PBWElement(kappa, order, data.draw(data_of(TRIPLES, kb, order)))
    assert x.mul(y).data == reference_mul(x, y)


def reference_exp(x):
    """The Series loop pbw_exp ran before term rows: term = term x / n."""
    out = term = x.unit_like()
    for n in range(1, x.order + 1):
        data = reference_mul(term, x)
        term = x._raw({k: s * Fraction(1, n) for k, s in data.items()})
        if term.is_zero():
            break
        out = out.add(term)
    return out.data


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([-1, 0, 1]),
    st.integers(1, 3),
    st.sampled_from(KINDS),
    st.data(),
)
def test_exp_matches_the_per_pair_loop(kappa, arity, kind, data):
    order = 3
    keys = st.tuples(*[TRIPLES] * arity)
    x = PBWTensor(kappa, order, arity, data.draw(data_of(keys, kind, order, 1)))
    assert pbw_exp(x).data == reference_exp(x)
    e = PBWElement(kappa, order, data.draw(data_of(TRIPLES, kind, order, 1)))
    assert pbw_exp(e).data == reference_exp(e)


def test_basic_rewrites():
    for kappa in (1, -1):
        Y = PBWElement.gen(kappa, 0, "Y")
        X = PBWElement.gen(kappa, 0, "X")
        T = PBWElement.gen(kappa, 0, "T")
        yx = Y.mul(X)
        assert elem_to_plain(yx) == {(1, 1, 0): 1, (0, 0, 1): -kappa}
        assert elem_to_plain(T.mul(X)) == {(1, 0, 1): 1}
        comm = X.mul(Y).sub(yx)
        assert elem_to_plain(comm) == {(0, 0, 1): kappa}


def test_product_associative_seeded():
    rng = random.Random(51)
    for kappa in (1, -1):
        for _ in range(6):
            xs = []
            for _ in range(3):
                data = {
                    tuple(rng.randrange(3) for _ in range(3)): Fraction(
                        rng.randint(-3, 3)
                    )
                    for _ in range(3)
                }
                xs.append(PBWElement(kappa, 1, data))
            a, b, c = xs
            assert a.mul(b).mul(c).eq(a.mul(b.mul(c)))


def test_compat_errors():
    a = PBWElement(1, 2, {(1, 0, 0): Series.hbar(2)})
    b = PBWElement(1, 3, {(1, 0, 0): Series.hbar(3)})
    with pytest.raises(OrderMismatch):
        a.mul(b)
    c = PBWElement(-1, 2, {(1, 0, 0): Series.hbar(2)})
    with pytest.raises(ValueError):
        a.mul(c)


def test_exp_basics():
    u = PBWElement.unit(1, 4)
    assert pbw_exp(PBWElement(1, 4, {})).eq(u)
    x = PBWElement(1, 4, {(1, 0, 0): Series.hbar(4)})
    e = pbw_exp(x)
    eneg = pbw_exp(x.neg())
    assert e.mul(eneg).eq(u)
    with pytest.raises(NonNilpotent):
        pbw_exp(PBWElement.gen(1, 4, "X"))


@pytest.mark.parametrize("kappa", [1, -1])
@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_bch(kappa, order):
    assert bch_report(kappa, order).ok


def test_heisenberg_counterexample():
    for order in (2, 4):
        lhs, rhs = heisenberg_counterexample(order)
        assert lhs.eq(rhs)
        assert not lhs.eq(PBWTensor.unit(1, order, 4))
    lhs0, rhs0 = heisenberg_counterexample(3, kappa=0)
    assert lhs0.eq(PBWTensor.unit(0, 3, 4))
    assert rhs0.eq(PBWTensor.unit(0, 3, 4))
    with pytest.raises(ValueError):
        heisenberg_counterexample(1)


def _theta(order, coeffs):
    return Series(order, {k: Fraction(v) for k, v in coeffs.items()})


def test_gcl_identity_seeded():
    rng = random.Random(52)
    order = 4
    for _ in range(5):
        th = _theta(
            order,
            {k: rng.randint(-2, 2) for k in range(1, order + 1)},
        )
        tp = _theta(
            order,
            {k: rng.randint(-2, 2) for k in range(1, order + 1)},
        )
        gcl_coassociator(th, tp, order)  # raises if the identity fails


def test_gcl_equal_angle_closed_form():
    order = 4
    th = _theta(order, {1: Fraction(2, 3)})
    phi = gcl_coassociator(th, th, order)
    lam = th * TauLaurent.tau(-1)
    expected = pbw_exp(
        PBWTensor(
            -1, order, 3, {((1, 0, 0), (0, 0, 1), (0, 1, 0)): -(lam * lam)}
        )
    )
    assert phi.eq(expected)


def test_gcl_zero_angles_trivial():
    order = 3
    z = Series.zero(order)
    phi = gcl_coassociator(z, z, order)
    assert phi.eq(PBWTensor.unit(-1, order, 3))


def test_gcl_twist_fails_cocycle_and_equivariance():
    order = 2
    th = _theta(order, {1: 1})
    ck = gcl_cocycle_report(th, order)
    assert not ck.ok
    assert ck.residual_term_count > 0
    ck2 = gcl_equivariance_report(th, order)
    assert not ck2.ok
    assert (ck2.residual_term_count, ck2.witness) == (2, "X")
    # the zero angle is a cocycle
    z = Series.zero(order)
    assert gcl_cocycle_report(z, order).ok
    assert gcl_equivariance_report(z, order).ok


def test_gcl_rejects_constant_angle():
    with pytest.raises(NonNilpotent):
        gcl_twist_pair(Series.const(1, 3), 3)
    with pytest.raises(OrderMismatch):
        gcl_twist_pair(Series.hbar(2), 3)


@pytest.mark.parametrize("order", [3, 5])
def test_moyal_suite(order):
    for ck in moyal_suite(order):
        assert ck.ok, ck.id


def test_tensor_coproduct_counit_laws():
    t = PBWTensor(1, 3, 1, {((2, 1, 0),): Series.hbar(3)})
    d = t.coproduct_leg(0)
    assert d.counit_leg(0).eq(t)
    assert d.counit_leg(1).eq(t)
    # coassociativity on the expanded tensor
    assert d.coproduct_leg(0).eq(d.coproduct_leg(1))


def test_tensor_invert_exp():
    order = 4
    x = PBWTensor(1, order, 2, {((1, 0, 0), (0, 1, 0)): Series.hbar(order)})
    e = pbw_exp(x)
    inv = e.invert()
    assert e.mul(inv).eq(PBWTensor.unit(1, order, 2))
    assert inv.eq(pbw_exp(x.neg()))
    with pytest.raises(NotInvertible):
        PBWTensor(1, order, 1, {((1, 0, 0),): Series.hbar(order)}).invert()


def test_antipode():
    for kappa in (1, -1):
        X = PBWElement.gen(kappa, 0, "X")
        Y = PBWElement.gen(kappa, 0, "Y")
        assert X.antipode().eq(X.neg())
        # anti-homomorphism: S(XY) = S(Y) S(X)
        assert X.mul(Y).antipode().eq(Y.antipode().mul(X.antipode()))


def test_counit():
    x = PBWElement(1, 2, {(0, 0, 0): Series.hbar(2), (1, 0, 0): 1})
    assert x.counit() == Series.hbar(2)
    assert PBWElement.gen(1, 2, "T").counit().is_zero()

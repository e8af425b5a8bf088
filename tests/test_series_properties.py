"""Property tests of Series arithmetic against a bivariate dict model.

The model flattens a series into {(hbar degree, tau power): value} and
multiplies by plain convolution.  It sums the products of one pair of hbar
degrees (i, j) before adding them into degree i + j, as Series does, so
besides the values it predicts the conductor of every Cyclotomic: a sum
takes the lcm of the conductors and loses it only when it cancels to zero.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopftwist.grammar import parse, render
from hopftwist.scalars import Cyclotomic, Series, TauLaurent, root_of_unity

SETTINGS = settings(max_examples=60, deadline=None)

Z3 = root_of_unity(1, 3)
Z4 = root_of_unity(1, 4)

# A small pool of values, so that products often meet and cancel.
_FRACTIONS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-2, 3)]
_ROOTS = [(n, e) for n in (3, 4, 12) for e in range(n)]


def _cyclotomic(root, q, extra):
    n, e = root
    coords = {e: q}
    if extra:
        coords[(e + 1) % n] = Fraction(1)
    return Cyclotomic(n, coords)


values = st.one_of(
    st.sampled_from(_FRACTIONS),
    st.builds(
        _cyclotomic, st.sampled_from(_ROOTS), st.sampled_from(_FRACTIONS), st.booleans()
    ),
)
tau_values = st.dictionaries(st.integers(-2, 2), values, max_size=3).map(TauLaurent)


@st.composite
def series_pairs(draw):
    K = draw(st.integers(1, 5))
    coeff = st.one_of(st.just(TauLaurent({})), tau_values)
    a = Series(K, {k: draw(coeff) for k in range(K + 1)})
    b = Series(K, {k: draw(coeff) for k in range(K + 1)})
    return a, b


scalars = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(_FRACTIONS + [Fraction(0)]),
    values,
    tau_values,
)
# a unit of TauLaurent: one nonzero term
tau_monomials = st.builds(lambda p, v: TauLaurent({p: v}), st.integers(-2, 2), values)


# --- the model ---------------------------------------------------------------


def flat(s):
    return {(d, p): v for d, c in enumerate(s.coeffs) for p, v in c.terms.items()}


def _add_into(out, key, v):
    r = out.get(key, 0) + v
    if r:
        out[key] = r
    else:
        out.pop(key, None)


def model_mul(A, B, K):
    pairs = {}
    for (i, pa), va in A.items():
        for (j, pb), vb in B.items():
            if i + j <= K:
                _add_into(pairs.setdefault((i, j), {}), pa + pb, va * vb)
    out = {}
    for i, j in sorted(pairs):
        for p, v in pairs[i, j].items():
            _add_into(out, (i + j, p), v)
    return out


def model_add(A, B):
    out = dict(A)
    for key, v in B.items():
        _add_into(out, key, v)
    return out


def model_neg(A):
    return {key: -v for key, v in A.items()}


def model_inverse(A, K):
    """Series.inverse on the model, for A whose constant term is a tau
    monomial c: c^-1 (1 - n + n^2 - ...) for n the part of A c^-1 of
    positive hbar degree, the geometric sum taken term by term."""
    ((p, v),) = [(p, v) for (d, p), v in A.items() if d == 0]
    c = {(0, -p): v.inverse() if isinstance(v, Cyclotomic) else 1 / v}
    n = {key: w for key, w in model_mul(A, c, K).items() if key[0]}
    out = term = {(0, 0): Fraction(1)}
    for i in range(K):
        term = model_mul(term, n, K)
        if not term:
            break
        out = model_add(out, model_neg(term) if i % 2 == 0 else term)
    return model_mul(out, c, K)


def model_pow(A, k, K):
    """A**k on the model, k >= 0, squared as Series squares it."""
    out = {(0, 0): Fraction(1)}
    while k:
        if k & 1:
            out = model_mul(out, A, K)
        k >>= 1
        if k:
            A = model_mul(A, A, K)
    return out


def model_scalar(x):
    if isinstance(x, TauLaurent):
        return {(0, p): v for p, v in x.terms.items()}
    return {(0, 0): Fraction(x) if isinstance(x, int) else x} if x else {}


def assert_matches(s, model):
    got = flat(s)
    assert set(got) == set(model)
    for key, v in got.items():
        assert isinstance(v, (Fraction, Cyclotomic)), (key, v)
        assert v, key
        w = model[key]
        assert v == w, key
        assert type(v) is type(w), key
        if isinstance(w, Cyclotomic):
            assert v.conductor == w.conductor, key


# The products of degree pair (1, 0) cancel at tau^0, after pair (0, 1)
# has put z3 there: summed pair by pair, that value keeps conductor 3.
_GROUPING = (
    Series(1, {0: TauLaurent({0: Z3}), 1: TauLaurent({0: Z4, 1: -Z4})}),
    Series(1, {0: TauLaurent({0: 1, -1: 1}), 1: TauLaurent({0: 1})}),
)


@SETTINGS
@given(series_pairs())
@example(_GROUPING)
def test_product_matches_model(pair):
    a, b = pair
    assert_matches(a * b, model_mul(flat(a), flat(b), a.order))


@SETTINGS
@given(series_pairs(), st.one_of(scalars, tau_monomials))
def test_sum_difference_and_negation_match_model(pair, x):
    a, b = pair
    neg_b = model_neg(flat(b))
    assert_matches(a + b, model_add(flat(a), flat(b)))
    assert_matches(a - b, model_add(flat(a), neg_b))
    assert_matches(-b, neg_b)
    # a constant on either side of -
    assert_matches(a - x, model_add(flat(a), model_neg(model_scalar(x))))
    assert_matches(x - a, model_add(model_scalar(x), model_neg(flat(a))))


@SETTINGS
@given(series_pairs(), scalars, tau_monomials, st.integers(1, 3))
@example((_GROUPING[0], _GROUPING[0]), TauLaurent({0: Z4, 1: -Z4}), TauLaurent({1: Z4}), 2)
def test_scalar_product_matches_model(pair, x, u, k):
    a, _ = pair
    K = a.order
    want = model_mul(flat(a), model_scalar(x), K)
    assert_matches(a * x, want)
    assert_matches(x * a, want)
    # a tau monomial u is a unit: a / u, and a ** -k with u for a's
    # constant term
    assert_matches(a / u, model_mul(flat(a), model_inverse(model_scalar(u), K), K))
    unit = Series(K, {0: u, **{d: c for d, c in enumerate(a.coeffs) if d}})
    assert_matches(unit ** -k, model_pow(model_inverse(flat(unit), K), k, K))


@SETTINGS
@given(series_pairs(), scalars)
def test_render_parse_round_trip_of_fused_results(pair, x):
    a, b = pair
    K = a.order
    before = (render(a), render(b))
    # a sum with a zero coefficient and a product by a unit keep some
    # coefficients of their operands; none may change afterwards
    results = [a * b, a + b, a - b, a * x, b + x, a + Series(K, {})]
    for s in results:
        assert parse(render(s), hbar_order=K) == s
        for c in s.coeffs:
            assert parse(render(c)) == c
    assert (render(a), render(b)) == before

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
@given(series_pairs())
def test_sum_difference_and_negation_match_model(pair):
    a, b = pair
    neg_b = {key: -v for key, v in flat(b).items()}
    assert_matches(a + b, model_add(flat(a), flat(b)))
    assert_matches(a - b, model_add(flat(a), neg_b))
    assert_matches(-b, neg_b)


@SETTINGS
@given(series_pairs(), scalars)
@example((_GROUPING[0], _GROUPING[0]), TauLaurent({0: Z4, 1: -Z4}))
def test_scalar_product_matches_model(pair, x):
    a, _ = pair
    want = model_mul(flat(a), model_scalar(x), a.order)
    assert_matches(a * x, want)
    assert_matches(x * a, want)


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

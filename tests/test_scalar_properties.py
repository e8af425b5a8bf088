"""Property tests of Fraction and Cyclotomic values: the render/parse round
trip, the field axioms across conductors 1-12, inverses, and the tagged
root-of-unity fast path against the generic product; and the ring axioms of
TauLaurent with rational and cyclotomic coefficients."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist.grammar import parse, render
from hopftwist.scalars import (
    _ROOTS,
    Cyclotomic,
    TauLaurent,
    _phi_deg,
    _rows_list,
    cyclo_mul,
    root_of_unity,
)

SETTINGS = settings(max_examples=80, deadline=None)

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def cyclotomics(draw):
    """A value at a conductor 1-12, from coordinates on any exponent below
    the conductor, so that exponents at or above phi(n) get reduced."""
    n = draw(st.integers(1, 12))
    coords = draw(st.dictionaries(st.integers(0, n - 1), fractions, max_size=4))
    return Cyclotomic(n, coords)


@SETTINGS
@given(fractions)
def test_fraction_round_trip(q):
    back = parse(render(q))
    assert back == q and isinstance(back, Fraction)


@SETTINGS
@given(cyclotomics())
def test_cyclotomic_round_trip(x):
    assert parse(render(x)) == x


@SETTINGS
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_cyclotomic_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert (a - b) + b == a
    assert not (a + (-a))


@SETTINGS
@given(cyclotomics())
def test_cyclotomic_inverse(x):
    if x:
        assert x * x.inverse() == 1
        assert x.inverse() * x == 1


roots = st.builds(root_of_unity, st.integers(-30, 30), st.integers(1, 12))


def _untagged(x):
    """A value with the coordinates of x and no root tag."""
    return Cyclotomic(x.conductor, dict(x.coords), _reduced=True)


@SETTINGS
@given(roots, roots)
def test_tagged_product_is_the_generic_product(a, b):
    got = a * b
    m = lcm(a.conductor, b.conductor)
    want = cyclo_mul(
        a._embedded(m), b._embedded(m), m, _phi_deg(m), _rows_list(m)
    )
    assert (got.conductor, got.coords) == (m, want)
    assert got is root_of_unity(got.root, m)
    generic = _untagged(a) * _untagged(b)
    assert generic.root is None
    assert (generic.conductor, generic.coords) == (m, want)


# at conductor 1 a root is the rational 1 itself, and a product of two ones
# may return either factor
nontrivial_roots = st.builds(root_of_unity, st.integers(-30, 30), st.integers(2, 12))


@SETTINGS
@given(nontrivial_roots, st.integers(1, 7))
def test_tag_survives_the_rational_one(a, k):
    one = Cyclotomic.from_rational(1)
    assert a * one is a and one * a is a and a * 1 is a and Fraction(1) * a is a
    assert a ** k is root_of_unity(a.root * k, a.conductor)


@SETTINGS
@given(roots)
def test_other_operations_are_untagged(a):
    for v in (-a, a + 0, a - 0, a * 2, Fraction(1, 3) * a):
        assert v.root is None
    # the inverse of a root is the root with the negated exponent, no solve
    assert a.inverse() is root_of_unity(-a.root, a.conductor)


# conductors whose lcm stays at most 60, so that chains of products stay small
small_roots = st.builds(
    root_of_unity, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 5, 6, 10, 12])
)
steps = st.lists(
    st.tuples(
        st.sampled_from(["+", "-", "*", "**"]),
        st.one_of(small_roots, fractions),
        st.integers(-2, 3),
    ),
    max_size=6,
)


@SETTINGS
@given(small_roots, steps)
def test_cached_roots_are_never_changed(start, ops):
    """Chains of +, -, * and ** through cached roots leave every cached
    value as root_of_unity built it."""
    acc = start
    for op, x, k in ops:
        if op == "+":
            acc = x + (acc + x)
        elif op == "-":
            acc = x - (acc - x)
        elif op == "*":
            acc = x * (acc * x)
        elif acc or k >= 0:
            acc = acc ** k
    for (e, q), r in _ROOTS.items():
        assert (r.conductor, r.root) == (q, e)
        assert r.coords == Cyclotomic(q, {e: 1}).coords


rationals = st.one_of(st.integers(-3, 3), fractions)


@SETTINGS
@given(st.one_of(cyclotomics(), roots), rationals)
def test_rational_operand_matches_its_conductor_one_value(x, q):
    """An int or Fraction operand, on either side of *, +, - and ==, and
    over x in q / x, gives what Cyclotomic.from_rational(q) gives, down to
    the conductor, the Fraction coordinates and the tag: x * 1 is x itself,
    1 / x of a tagged root is the tagged inverse, and every other result is
    a new untagged value."""
    c = Cyclotomic.from_rational(q)
    products = [(x * q, x * c), (q * x, c * x)]
    sums = [(x + q, x + c), (q + x, c + x), (x - q, x - c), (q - x, c - x)]
    for got, want in products + sums:
        assert (got.conductor, got.coords) == (want.conductor, want.coords)
        assert all(isinstance(v, Fraction) for v in got.coords.values())
    # c * x may return c when x is the conductor-1 root 1, so the tag of a
    # product with 1 is checked by the rule alone
    for got, want in products:
        if q == 1:
            assert got is x
        else:
            assert got.root is None and want.root is None
    for got, want in sums:
        assert got is not x and got.root is None and want.root is None
    assert (x == q) == (x == c) and (q == x) == (c == x)
    assert (x != q) == (x != c)
    # q / x is the conductor-1 value over x, tagged only as 1 / x
    if x:
        got, want = q / x, c / x
        assert (got.conductor, got.coords, got.root) == (want.conductor, want.coords, want.root)
        assert all(isinstance(v, Fraction) for v in got.coords.values())
        tagged = q == 1 and x.root is not None and x.conductor > 1
        assert got.root == (x.inverse().root if tagged else None)


@st.composite
def tau_laurents(draw):
    """A Laurent polynomial in tau, powers -3..3, with rational or
    cyclotomic coefficients at conductors dividing 12, so that products stay
    at conductor 12 at most."""
    terms = {}
    for power in draw(st.lists(st.integers(-3, 3), max_size=4, unique=True)):
        n = draw(st.sampled_from([1, 3, 4, 6, 12]))
        kind = draw(st.sampled_from(["rational", "cyclotomic", "root"]))
        if kind == "rational":
            terms[power] = draw(fractions)
        elif kind == "root":
            terms[power] = root_of_unity(draw(st.integers(-30, 30)), n)
        else:
            coords = draw(st.dictionaries(st.integers(0, n - 1), fractions, max_size=3))
            terms[power] = Cyclotomic(n, coords)
    return TauLaurent(terms)


@SETTINGS
@given(tau_laurents(), tau_laurents(), tau_laurents())
def test_tau_laurent_ring_axioms(a, b, c):
    one, zero = TauLaurent({0: 1}), TauLaurent({})
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * one == a and one * a == a and a * 1 == a
    assert a + zero == a and a + 0 == a
    assert not a * zero
    assert not a + (-a) and -(-a) == a
    assert a - b == a + (-b) and (a - b) + b == a


@SETTINGS
@given(tau_laurents(), st.one_of(fractions, st.builds(root_of_unity, st.integers(0, 11), st.just(12))),
       st.integers(-3, 3))
def test_tau_laurent_scalars_and_powers_of_tau(a, q, k):
    # a scalar is a constant polynomial; tau^k shifts every power by k
    assert a * q == a * TauLaurent({0: q}) and q * a == a * q
    shifted = a * TauLaurent.tau(k)
    assert shifted == TauLaurent({p + k: v for p, v in a.terms.items()})
    assert shifted * TauLaurent.tau(-k) == a

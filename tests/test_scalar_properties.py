"""Property tests of Fraction and Cyclotomic values: the render/parse round
trip, the field axioms across conductors 1-12, and inverses."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist.grammar import parse, render
from hopftwist.scalars import Cyclotomic

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

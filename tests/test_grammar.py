"""Parser and serializer tests for the scalar text format."""

import random
from fractions import Fraction

import pytest

from hopftwist.errors import ParseError
from hopftwist.grammar import parse, render
from hopftwist.scalars import Cyclotomic, Series, TauLaurent, root_of_unity


def test_parse_rationals():
    assert parse("7") == Fraction(7)
    assert parse("1/2") == Fraction(1, 2)
    assert parse("-3/4 + 1") == Fraction(1, 4)
    assert parse("2^10") == 1024
    assert parse("(1+2)*(3-5)") == -6


def test_parse_roots_of_unity():
    assert parse("z(3,1)+z(3,2)") == -1
    assert parse("z(4,1)^2") == -1
    assert parse("z(8,1)*z(8,7)") == 1
    assert parse("z(6,-1)") == root_of_unity(5, 6)
    assert parse("z(6,-1)") is root_of_unity(5, 6)
    v = parse("2*z(8,1)^2 - 1/3")
    assert v == 2 * root_of_unity(2, 8) - Fraction(1, 3)


def test_parse_tau_and_h():
    assert parse("tau*tau^-1") == 1
    assert parse("-tau^2/2") == TauLaurent({2: Fraction(-1, 2)})
    s = parse("1 + tau^-1*h", hbar_order=2)
    assert s == Series(2, {0: 1, 1: TauLaurent({-1: 1})})
    assert parse("h^2", hbar_order=4) == Series(4, {2: 1})
    assert parse("(1+h)^2", hbar_order=2) == Series(2, {0: 1, 1: 2, 2: 1})
    # h beyond the truncation order just vanishes
    assert parse("h^5", hbar_order=3) == Series(3, {})


def test_conductor_cap_is_an_error_at_the_z_token():
    # the lcm of the conductors may reach the cap, not pass it
    assert parse("z(8,1)*z(125,1)").conductor == 1000
    for text, column in (("z(1001,1)", 1), ("2*z(997,1)*z(991,1)", 12)):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert e.value.column == column and "above the cap of 1000" in str(e.value)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse("1 +\n* 2")
    assert e.value.line == 2 and e.value.column == 1
    with pytest.raises(ParseError) as e:
        parse("1 + q")
    assert e.value.line == 1 and e.value.column == 5
    with pytest.raises(ParseError) as e:
        parse("z(3)")
    assert e.value.column == 4
    with pytest.raises(ParseError):
        parse("1 2")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("h")  # no series order given
    with pytest.raises(ParseError):
        parse("1 + #")


def test_render_basics():
    assert render(Fraction(-3, 4)) == "-3/4"
    assert render(Fraction(0)) == "0"
    assert render(root_of_unity(1, 4)) == "z(4,1)"
    assert render(TauLaurent({})) == "0"
    assert render(TauLaurent.tau()) == "tau"
    assert render(Series.one(3)) == "1"
    assert render(Series.hbar(3)) == "h"
    assert render(Series.zero(2)) == "0"


def _random_value(rng):
    kind = rng.randrange(3)
    n = rng.choice([1, 3, 4, 5, 8, 12])
    base = Cyclotomic.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    for _ in range(rng.randint(0, 2)):
        base = base + root_of_unity(rng.randrange(n), n) * Fraction(
            rng.randint(-3, 3), rng.randint(1, 4)
        )
    if kind == 0:
        return base
    t = TauLaurent({0: base})
    for _ in range(rng.randint(0, 2)):
        t = t + TauLaurent({rng.randint(-2, 2): rng.randint(-3, 3)})
    if kind == 1:
        return t
    K = rng.randint(0, 4)
    coeffs = {}
    for k in range(K + 1):
        if rng.random() < 0.7:
            coeffs[k] = TauLaurent({rng.randint(-1, 1): rng.randint(-3, 3)})
    return Series(K, coeffs)


def test_round_trip_random():
    rng = random.Random(20260501)
    for _ in range(120):
        v = _random_value(rng)
        text = render(v)
        K = v.order if isinstance(v, Series) else None
        w = parse(text, hbar_order=K)
        assert w == v, text


def test_round_trip_preserves_conductor_terms():
    v = root_of_unity(1, 8) + root_of_unity(3, 8) * Fraction(2, 5)
    assert parse(render(v)) == v

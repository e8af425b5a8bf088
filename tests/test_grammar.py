"""Parser and serializer tests for the scalar text format."""

import random
import time
from fractions import Fraction

import pytest

from hopftwist.errors import ParseError
from hopftwist.grammar import _MAX_INVERSE_WORK, _inverse_cost, hbar_valuation_bound, parse, render
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


# Powers past the size caps, with the column of their '^' token, and powers
# under them; parse at the order a --theta gets by default.
_REFUSED_POWERS = [
    ("(1+z(840,1))^2000*h", 13),
    ("(1+tau)^3000*h", 8),
    ("((1+tau)^60)^60*h", 13),
    ("(1+z(840,1)+h)^2000*h", 15),
    ("(3^1000000)^300*h", 12),
    # the inverse of a divisor whose exponents spread over z(997,.)
    ("(3+z(997,1)-2*z(997,5)+z(997,100)+z(997,400))^-1*h", 46),
]
_ALLOWED_POWERS = [
    "(1+z(8,1))^20000*h",
    "(1+h)^100000*h",
    "2^10000000*h",
    "tau^100000*h",
]


@pytest.mark.parametrize("text,column", _REFUSED_POWERS)
def test_power_above_the_caps_is_an_error_at_the_caret(text, column):
    started = time.monotonic()
    with pytest.raises(ParseError) as e:
        parse(text, hbar_order=4)
    assert time.monotonic() - started < 1
    assert e.value.column == column and "above the cap of" in str(e.value)


@pytest.mark.parametrize("text", _ALLOWED_POWERS)
def test_power_under_the_caps_parses(text):
    assert not parse(text, hbar_order=4).is_zero()


def test_power_cap_reads_the_value_not_the_exponent():
    # a root of unity and a series that truncates to zero cost nothing
    assert parse("z(3,2)^1000000000") == root_of_unity(2 * 10**9, 3)
    assert parse("(1+h)*h^100000", hbar_order=4).is_zero()
    # a sparse power at a large prime conductor is cheap
    assert parse("(1+z(997,1))^2") == 1 + 2 * root_of_unity(1, 997) + root_of_unity(2, 997)


# Products and quotients past the size caps, with the column of their '*' or
# '/' token, and products under them; twelve factors (1+tau)^360, each under
# the power cap, are refused at the first '*'.
_TWELVE_FACTORS = "*".join(["(1+tau)^360"] * 12) + "*h"
_REFUSED_PRODUCTS = [
    (_TWELVE_FACTORS, 12, "product"),
    ("(1+tau)^360*(1+tau)^300*h", 12, "product"),
    ("2^5000000*2^5000001*h", 10, "product"),
    ("(1+tau)^360/(1+(1+tau)^300*h)*h", 12, "quotient"),
    ("1/(3+z(997,1)-2*z(997,5)+z(997,100)+z(997,400))*h", 2, "quotient"),
    ("h/(3+z(997,1)-2*z(997,5)+z(997,100)+z(997,400)+h)", 2, "quotient"),
]
_ALLOWED_PRODUCTS = [
    "(1+tau)^360*h",
    "(1+tau)^100*(1+tau)^100*h",
    "2^5000000*2^5000000*h",
    "(1+z(7,1))^5000*(1+z(7,1))^5000*h",
    "(1+tau+h)^50*(1+tau+h)^50*h",
    "1/(1+z(840,1))*h",
]


@pytest.mark.parametrize("text,column,what", _REFUSED_PRODUCTS)
def test_product_above_the_caps_is_an_error_at_the_operator(text, column, what):
    started = time.monotonic()
    with pytest.raises(ParseError) as e:
        parse(text, hbar_order=4)
    assert time.monotonic() - started < 1
    assert e.value.column == column
    assert str(e.value).startswith(what + " too large") and "above the cap of" in str(e.value)


@pytest.mark.parametrize("text", _ALLOWED_PRODUCTS)
def test_product_under_the_caps_parses(text):
    assert not parse(text, hbar_order=4).is_zero()


def test_inverse_cost_reads_the_largest_numerator():
    # many unit coefficients cost no more than one: the divisor of l1 norm
    # 12 is estimated under the cap, the spread divisor far above it
    unit = parse("1+" + "+".join("z(997,%d)" % k for k in range(1, 12)))
    spread = parse("3+z(997,1)-2*z(997,5)+z(997,100)+z(997,400)")
    assert _inverse_cost(unit)[1] < _MAX_INVERSE_WORK < _inverse_cost(spread)[1]
    assert _inverse_cost(unit) == _inverse_cost(parse("1+z(997,11)")) == (996, 996**2 * 12 * 109)


def test_product_cap_leaves_the_degree_bound_alone():
    # the hbar valuation bound evaluates degrees only, at no cost
    assert hbar_valuation_bound(_TWELVE_FACTORS) == 1


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


@pytest.mark.parametrize(
    "text,column",
    [
        ("(" * 151 + "1" + ")" * 151, 151),
        ("-" * 151 + "1", 151),
        ("-(" * 75 + "-1" + ")" * 75, 151),
        ("2^" + "(" * 151 + "1" + ")" * 151, 153),
        ("2^" + "-" * 151 + "1", 153),
    ],
    ids=["parentheses", "unary-minus", "mixed", "exponent-parentheses", "exponent-minus"],
)
def test_nesting_past_the_cap_is_an_error_at_the_opening_token(text, column):
    for parser in (parse, hbar_valuation_bound):
        with pytest.raises(ParseError, match="nesting deeper than 150 levels") as e:
            parser(text)
        assert e.value.line == 1 and e.value.column == column


def test_nesting_up_to_the_cap_parses():
    assert parse("(" * 150 + "h" + ")" * 150, hbar_order=1) == Series.hbar(1)
    assert parse("-" * 150 + "1") == 1
    assert parse("2^" + "(" * 75 + "-" * 75 + "3" + ")" * 75) == Fraction(1, 8)
    # levels are left again: sibling groups do not add up
    deep = "(" * 150 + "1" + ")" * 150
    assert parse("+".join([deep] * 3)) == 3
    assert parse("-" + "(" * 149 + "1" + ")" * 149 + "*" + "-" * 150 + "1") == -1
    assert hbar_valuation_bound("*".join(["(" * 150 + "h" + ")" * 150] * 2)) == 2


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

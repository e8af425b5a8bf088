"""Leg maps of weight 1 that neither drop nor merge a key, as key relabels.

Unit insertion when the unit is one basis element, a group-like coproduct
and a commutative host's twisted coproduct (F Delta(g) F^-1 = Delta(g)) send
each digit of a leg to one block of digits with coefficient 1, no two
digits to the same block.  On a dual host k^G the coproduct d(g) -> sum
over xy = g of d(x) (x) d(y) and the insertion of the unit, the sum of
every d(g), fan each digit out to several blocks, again with coefficient 1
and no block reached from two digits.  The host recognises such cells
once, and _leg_map moves each piece's numerators to their new keys without
a piece_product.  Each map is checked against a value-level reference
built from basis_coproduct and elem_unit, and counted: the relabels form no
piece_product, while a counit, which merges keys (k[G]) or drops them
(k^G), still sums.

Over a dual host the pieces of every relabel equal those of the summing
path, and the all-ones row, the unit of a pointwise table with unit
coefficients, is a shortcut of the product: a product with it is the
other operand.  The rule is read from the table, so a host whose declared
unit is wrong, or whose pointwise table has a coefficient 2, still
multiplies exactly."""

import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import constructors as con
from hopftwist import multilinear
from hopftwist.hopf_cochain import random_counital_two_cochain, twist
from hopftwist.multilinear import LegTensor
from hopftwist.scalars import ScalarRing, Series, accumulate


def _coproduct_ref(t, leg):
    """t.coproduct_leg(leg) from basis_coproduct on values."""
    host = t.host
    out = {}
    for digits, v in t.entries():
        for (j, k), w in host.basis_coproduct(digits[leg]).items():
            accumulate(out, digits[:leg] + (j, k) + digits[leg + 1 :], v * w)
    return sorted(out.items())


def _embed_ref(t, positions, arity_out):
    """t.leg_embed(positions, arity_out) from elem_unit on values."""
    host = t.host
    unit = host.elem_unit()
    out = {}
    for digits, v in t.entries():
        items = [((), v)]
        it = iter(digits)
        for p in range(arity_out):
            if p in positions:
                d = next(it)
                items = [(key + (d,), c) for key, c in items]
            else:
                items = [(key + (d,), c * w) for key, c in items for d, w in unit.items()]
        for key, c in items:
            accumulate(out, key, c)
    return sorted(out.items())


def _counit_ref(t, leg):
    """counit_leg(t, leg) from the counit list on values."""
    out = {}
    for digits, v in t.entries():
        accumulate(out, digits[:leg] + digits[leg + 1 :], v * t.host.counit[digits[leg]])
    return sorted(out.items())


def _tensor(host, arity, rng):
    vals = [Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(-5, 3)]
    return LegTensor(
        host,
        arity,
        {rng.randrange(host.dim**arity): host.ring.coerce(rng.choice(vals)) for _ in range(7)},
    )


@pytest.fixture
def product_calls(monkeypatch):
    calls = []
    piece_product = multilinear.piece_product

    def counted(*args):
        calls.append(args)
        return piece_product(*args)

    monkeypatch.setattr(multilinear, "piece_product", counted)
    return calls


def _commutative_twist():
    host = con.group_algebra(con.cyclic_group(4), ScalarRing(hbar_order=2))
    F = random_counital_two_cochain(host, random.Random(11))
    return twist(host, F).twisted


HOSTS = {
    "k[S3]": con.group_algebra(con.symmetric_3()),
    "k[D4] series": con.group_algebra(con.dihedral_4(), ScalarRing(hbar_order=2)),
    "k[Z4] twisted": _commutative_twist(),
}


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_relabel_cells_are_recognised(name):
    host = HOSTS[name]
    assert host.coproduct_pieces()[2] is not None
    assert host.unit_cells(True)[2] is not None and host.unit_cells(False)[2] is not None
    # the counit sends every digit to code 0; a dual coproduct fans out,
    # and its counit gives every digit but e no code
    assert host.counit_pieces()[2] is None
    dual = con.dual_group_hopf(con.symmetric_3())
    assert dual.coproduct_pieces()[2] is not None and dual.coproduct_pieces()[2].full
    assert dual.unit_cells(True)[2].full and dual.unit_cells(False)[2].full
    assert dual.counit_pieces()[2] is None


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_relabel_leg_maps_match_values_without_a_product(name, product_calls):
    host = HOSTS[name]
    rng = random.Random(name)
    for arity in (1, 2, 3):
        t = _tensor(host, arity, rng)
        for leg in range(arity):
            got = t.coproduct_leg(leg)
            assert got.entries() == _coproduct_ref(t, leg)
        for p in range(arity + 1):
            positions = [q for q in range(arity + 1) if q != p]
            assert t.leg_embed(positions, arity + 1).entries() == _embed_ref(t, positions, arity + 1)
        assert t.leg_embed(range(arity), arity + 2).entries() == _embed_ref(t, range(arity), arity + 2)
    assert product_calls == []


def test_summing_leg_maps_still_form_products(product_calls):
    # a dual host's coproduct is a relabel; every counit sums over digits
    host = con.dual_group_hopf(con.symmetric_3())
    t = _tensor(host, 2, random.Random(3))
    assert t.coproduct_leg(1).entries() == _coproduct_ref(t, 1)
    assert product_calls == []
    assert t.counit_leg(0).entries() == _counit_ref(t, 0)
    assert len(product_calls) == 1
    kg = HOSTS["k[S3]"]
    u = _tensor(kg, 2, random.Random(3))
    assert u.counit_leg(1).entries() == _counit_ref(u, 1)
    assert len(product_calls) == 2


# ---------------------------------------------------------------------------
# dual hosts k^G: fan-out relabels and the all-ones unit


DUAL_GROUPS = {
    "Z2^2": con.elementary_abelian_2(2),
    "S3": con.symmetric_3(),
    "D4": con.dihedral_4(),
}
DUAL_HOSTS = [
    host
    for G in DUAL_GROUPS.values()
    for host in (con.dual_group_hopf(G), multilinear.with_series_ring(con.dual_group_hopf(G), 2))
]
VALUES = [Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(-5, 3), Fraction(7)]


@contextlib.contextmanager
def _counting():
    """The piece_product calls made inside the block."""
    calls = []
    piece_product = multilinear.piece_product

    def counted(*args):
        calls.append(args)
        return piece_product(*args)

    multilinear.piece_product = counted
    try:
        yield calls
    finally:
        multilinear.piece_product = piece_product


def _product_ref(a, b):
    """a * b from basis_mul on values, leg by leg."""
    host = a.host
    out = {}
    for da, va in a.entries():
        for db, vb in b.entries():
            terms = [((), va * vb)]
            for x, y in zip(da, db):
                terms = [(key + (k,), c * w) for key, c in terms for k, w in host.basis_mul(x, y).items()]
            for key, c in terms:
                accumulate(out, key, c)
    return sorted(out.items())


def _summed(t, leg, cells, width):
    """The leg map through the summing path: the same cells, no relabel."""
    pieces, N, _relabel = cells
    return t._leg_map(leg, (pieces, N, None), width)


def _same_pieces(got, want):
    assert got._phases() == want._phases()


@st.composite
def dual_tensors(draw, host, arity):
    """A tensor over a dual host: sparse, all-ones pieces (a multiple of
    the unit, or on a series host c + c' h on every key), the unit itself,
    or sparse with a common content factor."""
    size = host.dim**arity
    kind = draw(st.sampled_from(["sparse", "ones", "unit", "content"]))
    series = host.ring.is_series
    if kind == "unit":
        return LegTensor.unit(host, arity)

    def value(q):
        if not series:
            return q
        return Series(host.ring.hbar_order, {0: q, 1: draw(st.sampled_from(VALUES)) * q})

    if kind == "ones":
        c = draw(st.sampled_from(VALUES))
        return LegTensor(host, arity, {k: value(c) for k in range(size)})
    keys = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6, unique=True))
    factor = 6 if kind == "content" else 1
    return LegTensor(host, arity, {k: value(factor * draw(st.sampled_from(VALUES))) for k in keys})


@pytest.mark.parametrize("arity", (1, 2, 3))
@pytest.mark.parametrize("index", range(len(DUAL_HOSTS)))
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_dual_leg_maps_are_relabels_matching_values(index, arity, data):
    host = DUAL_HOSTS[index]
    t = data.draw(dual_tensors(host, arity))
    with _counting() as calls:
        coproducts = [t.coproduct_leg(leg) for leg in range(arity)]
        embeds = [t.leg_embed([q for q in range(arity + 1) if q != p], arity + 1) for p in range(arity + 1)]
        wide = t.leg_embed(range(arity), arity + 2) if arity < 3 else None
    assert calls == []
    for leg, got in enumerate(coproducts):
        assert got.entries() == _coproduct_ref(t, leg)
        _same_pieces(got, _summed(t, leg, host.coproduct_pieces(), 2))
    for p, got in enumerate(embeds):
        assert got.entries() == _embed_ref(t, [q for q in range(arity + 1) if q != p], arity + 1)
        _same_pieces(got, _summed(t, max(p - 1, 0), host.unit_cells(p == 0), 2))
    if wide is not None:
        assert wide.entries() == _embed_ref(t, range(arity), arity + 2)
    with _counting() as calls:
        for leg in range(arity):
            assert t.counit_leg(leg).entries() == _counit_ref(t, leg)
    assert len(calls) == arity
    u = data.draw(dual_tensors(host, arity))
    pointwise = {k: v * u.data[k] for k, v in t.data.items() if k in u.data and v * u.data[k]}
    assert t.mul(u).data == pointwise and u.mul(t).data == pointwise


@pytest.mark.parametrize("index", range(len(DUAL_HOSTS)))
def test_dual_unit_is_the_all_ones_row_and_a_product_shortcut(index):
    host = DUAL_HOSTS[index]
    t = _tensor(host, 2, random.Random(index))
    for arity in (1, 2, 3, 4):
        ((nums, den),) = LegTensor.unit(host, arity).rows().values()
        assert nums == dict.fromkeys(range(host.dim**arity), 1) and den == 1
    # unit rows, coproducts and embeddings of the unit meet the one all-ones
    # row of their arity by identity, and a product with it is the operand
    ones = LegTensor.unit(host, 2)
    assert ones.rows()[0, 0, 0][0] is host._ones[2]
    assert LegTensor.unit(host, 1).coproduct_leg(0).rows()[0, 0, 0][0] is host._ones[2]
    prod = ones.mul(t)
    assert prod.eq(t)
    assert all(prod.rows()[p][0] is t.rows()[p][0] for p in t.rows())


def _wrong_unit_dual():
    """k^(Z2^2) declaring the unit d(e) instead of the sum of every d(g)."""
    H = con.dual_group_hopf(DUAL_GROUPS["Z2^2"])
    return multilinear.HopfPresentation(
        H.dim, H.labels, H.ring, H.mult, [1, 0, 0, 0], H.coproduct, H.counit, H.antipode,
    )


def _doubling_pointwise():
    """A pointwise table with coefficient 2, d(i) d(i) = 2 d(i), declaring the
    all-ones unit (its unit is the sum of d(i) / 2)."""
    return multilinear.AlgebraPresentation(
        4, ["a", "b", "c", "d"], ScalarRing(), {(i, i): {i: 2} for i in range(4)}, [1] * 4
    )


@pytest.mark.parametrize("make", [_wrong_unit_dual, _doubling_pointwise])
def test_unit_rule_is_read_from_the_table(make):
    host = make()
    rng = random.Random(7)
    for arity in (1, 2, 3):
        ones = LegTensor(host, arity, dict.fromkeys(range(host.dim**arity), 1))
        declared = LegTensor.unit(host, arity)
        for _ in range(4):
            b = _tensor(host, arity, rng)
            for x, y in ((ones, b), (b, ones), (declared, b), (b, declared)):
                got = x.mul(y)
                assert got.entries() == _product_ref(x, y)
                if x is declared or y is declared:
                    # the declared unit is not the table's: no shortcut
                    assert got.entries() != b.entries() or b.entries() == []
    if host.pointwise_coeffs() is None:
        assert LegTensor(host, 1, {0: 3}).mul(LegTensor.unit(host, 1)).entries() == [((0,), 6)]
    else:
        outcome = {c.id: c for c in multilinear.verify_hopf(host)}["unit-laws"]
        assert outcome.status == "fail"

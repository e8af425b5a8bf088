"""One-to-one leg maps of weight 1 as key relabels.

Unit insertion when the unit is one basis element, a group-like coproduct
and a commutative host's twisted coproduct (F Delta(g) F^-1 = Delta(g)) send
each digit of a leg to one block of digits with coefficient 1, no two
digits to the same block.  The host recognises such cells once, and
_leg_map moves each piece's numerators to their new keys without a
piece_product.  Each map is checked against a value-level reference built
from basis_coproduct and elem_unit, and counted: the relabels form no
piece_product, while a dual host's coproduct, which sums, still does."""

import random
from fractions import Fraction

import pytest

from hopftwist import constructors as con
from hopftwist import multilinear
from hopftwist.hopf_cochain import random_counital_two_cochain, twist
from hopftwist.multilinear import LegTensor
from hopftwist.scalars import ScalarRing, accumulate


def _coproduct_ref(t, leg):
    """coproduct_leg(t, leg) from basis_coproduct on values."""
    host = t.host
    out = {}
    for digits, v in t.entries():
        for (j, k), w in host.basis_coproduct(digits[leg]).items():
            accumulate(out, digits[:leg] + (j, k) + digits[leg + 1 :], v * w)
    return sorted(out.items())


def _embed_ref(t, positions, arity_out):
    """leg_embed(t, positions, arity_out) from elem_unit on values."""
    host = t.host
    unit = host.elem_unit()
    out = {}
    for digits, v in t.entries():
        items = [((), v)]
        it = iter(digits)
        for p in range(arity_out):
            choices = {next(it): host.ring.one()} if p in positions else unit
            items = [(key + (d,), c * w) for key, c in items for d, w in choices.items()]
        for key, c in items:
            accumulate(out, key, c)
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
    # the counit sends every digit to code 0, and a dual coproduct sums
    assert host.counit_pieces()[2] is None
    assert con.dual_group_hopf(con.symmetric_3()).coproduct_pieces()[2] is None


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
    # a dual host's coproduct and every counit sum over digits
    host = con.dual_group_hopf(con.symmetric_3())
    t = _tensor(host, 2, random.Random(3))
    assert t.coproduct_leg(1).entries() == _coproduct_ref(t, 1)
    t.counit_leg(0)
    assert len(product_calls) == 2

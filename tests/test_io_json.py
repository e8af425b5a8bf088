"""Round trips and failure modes for the JSON/CSV layer."""

import json
import random
from fractions import Fraction
from itertools import product
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import io_json as io
from hopftwist import scalars
from hopftwist.constructors import (
    ChainComplexWindow,
    FiniteGroup,
    cyclic_group,
    dual_group_hopf,
    elementary_abelian_2,
    group_algebra,
    symmetric_3,
    taft,
)
from hopftwist.errors import ParseError, SchemaError
from hopftwist.graded import group_graded, laurent_window_graded
from hopftwist.group_cohomology import GroupCochain, fano_octonions
from hopftwist.heis_torus import HeisElement
from hopftwist.multilinear import (
    AlgebraPresentation,
    HopfPresentation,
    LegTensor,
    verify_hopf,
    with_series_ring,
)
from hopftwist.scalars import Cyclotomic, ScalarRing, Series, TauLaurent, root_of_unity


def reload_presentation(pres):
    text = io.dump_json(io.presentation_to_dict(pres))
    return io.presentation_from_dict(json.loads(text)), text


@pytest.mark.parametrize(
    "pres",
    [
        group_algebra(symmetric_3()),
        dual_group_hopf(cyclic_group(3)),
        taft(3),
    ],
    ids=["kS3", "dualZ3", "taft3"],
)
def test_presentation_round_trip(pres):
    back, text = reload_presentation(pres)
    assert io.dump_json(io.presentation_to_dict(back)) == text
    assert all(o.ok for o in verify_hopf(back))


def test_series_ring_survives_round_trip():
    pres = with_series_ring(group_algebra(cyclic_group(2)), 3)
    back, text = reload_presentation(pres)
    assert back.ring.hbar_order == 3
    assert io.dump_json(io.presentation_to_dict(back)) == text


def test_shipped_symmetric_group_file():
    path = resources.files("hopftwist").joinpath("data/ks3_hopf.json")
    doc = io.load_json_file(str(path))
    pres = io.presentation_from_dict(doc)
    assert pres.dim == 6
    assert all(o.ok for o in verify_hopf(pres))
    # canonical file: dumping what we loaded reproduces the bytes
    assert io.dump_json(io.presentation_to_dict(pres)) == io.dump_json(doc)


def test_cyclotomic_coefficient_expressions():
    doc = io.presentation_to_dict(group_algebra(cyclic_group(2)))
    # z(3,1)+z(3,2) is -1 exactly
    doc["unit"] = ["1+z(3,1)+z(3,2)+1", "0"]
    pres = io.presentation_from_dict(doc)
    assert pres.unit[0] == Fraction(1)


def test_conductor_recorded_for_cyclotomic_entries():
    doc = io.presentation_to_dict(group_algebra(cyclic_group(2)))
    doc["mult"]["1,1"] = [[0, "z(4,1)"]]
    pres = io.presentation_from_dict(doc)
    out = io.presentation_to_dict(pres)
    assert out["scalar"]["conductor"] == 4
    assert isinstance(pres.mult[(1, 1)][0], Cyclotomic)


def test_float_coefficient_rejected():
    doc = io.presentation_to_dict(group_algebra(cyclic_group(2)))
    doc["unit"] = [0.5, 0]
    with pytest.raises(SchemaError) as err:
        io.presentation_from_dict(doc)
    assert err.value.field == "unit"


def test_noninvertible_antipode_rejected():
    doc = io.presentation_to_dict(group_algebra(cyclic_group(2)))
    doc["antipode"] = [["1", "1"], ["1", "1"]]
    with pytest.raises(SchemaError) as err:
        io.presentation_from_dict(doc)
    assert err.value.field == "antipode"


def _z2_doc(hbar_order=None):
    doc = io.presentation_to_dict(group_algebra(cyclic_group(2)))
    doc["scalar"]["hbar_order"] = hbar_order
    return doc


def _with_antipode(antipode, hbar_order):
    if antipode is None:
        return io.presentation_to_dict(taft(3))
    doc = io.presentation_to_dict(group_algebra(cyclic_group(len(antipode))))
    doc["scalar"]["hbar_order"] = hbar_order
    doc["antipode"] = antipode
    return doc


# (antipode, hbar_order, accepted) over k[Z_n]; None stands for taft3's own
# antipode.  The rule is "nonzero at tau = 1": 1 + tau is no unit of the
# Laurent series ring but passes, tau - 1 is not zero at tau = 2*pi*i but
# fails.
_ANTIPODES = [
    ([["h", "1"], ["1", "0"]], 2, True),
    ([["1+tau", "1"], ["tau", "1"]], 2, True),
    ([["tau", "0"], ["0", "tau^-1"]], 2, True),
    ([["1+h", "h"], ["0", "1"]], 2, True),
    ([["1+tau"]], 1, True),
    (None, None, True),
    ([["1+h", "1+h"], ["1", "1"]], 2, False),
    ([["h", "1+h"], ["0", "h"]], 2, False),
    ([["z(3,1)", "1"], ["z(3,2)", "z(3,1)"]], None, False),
    ([["tau", "tau"], ["1", "1"]], 2, False),
    ([["1", "1"], ["1", "1"]], None, False),
    ([["tau-1"]], 1, False),
    ([["z(997,1)", "0"], ["0", "1"]], None, True),
    ([["0", "z(997,5)"], ["1+z(997,1)", "0"]], 2, True),
    ([["0", "z(997,5)"], ["0", "1"]], 2, False),
]


@pytest.mark.parametrize("antipode,hbar_order,accepted", _ANTIPODES)
def test_antipode_invertibility_decisions(antipode, hbar_order, accepted):
    # decided on the h^0 part with tau set to 1, over the blocks of Q(z_N)
    doc = _with_antipode(antipode, hbar_order)
    if accepted:
        assert io.presentation_from_dict(doc).antipode is not None
        return
    with pytest.raises(SchemaError, match="not invertible") as err:
        io.presentation_from_dict(doc)
    assert err.value.field == "antipode"


def test_antipode_expansion_above_the_cap_is_a_schema_error():
    # a connected 2 x 2 part over Q(z_997) expands to 1992 rational rows,
    # estimated at 1992^3 units: refused before the expansion is built
    ap = [["z(997,1)", "1", "0", "0"], ["1", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    doc = _with_antipode(ap, None)
    with pytest.raises(SchemaError, match="antipode check too costly") as err:
        io.presentation_from_dict(doc)
    assert err.value.field == "antipode"
    # at conductor 3 the same pattern is decided: det = z3 - 1 != 0
    ap[0][0] = "z(3,1)"
    assert io.presentation_from_dict(_with_antipode(ap, None)).antipode is not None


def test_a_cyclotomic_antipode_part_builds_its_columns_once(monkeypatch):
    # the load-time price and the rank read the same integer columns
    real = scalars._field_columns
    calls = []

    def counted(mat, N):
        calls.append(N)
        return real(mat, N)

    monkeypatch.setattr(scalars, "_field_columns", counted)
    monkeypatch.setattr(io, "_field_columns", counted)
    doc = _with_antipode([["z(3,1)", "1"], ["1", "1"]], None)
    assert io.presentation_from_dict(doc).antipode is not None
    assert calls == [3]


@pytest.mark.parametrize(
    "field,mutate",
    [
        ("mult", lambda d: d["mult"].__setitem__("1,1", [[0, "tau"]])),
        ("antipode", lambda d: d.__setitem__("antipode", [["tau", "0"], ["0", "1"]])),
        ("unit", lambda d: d.__setitem__("unit", ["2*tau^-1", "0"])),
    ],
)
def test_tau_power_in_an_exact_ring_names_its_field(field, mutate):
    doc = _z2_doc()
    mutate(doc)
    with pytest.raises(SchemaError, match="power of tau in an exact ring") as err:
        io.presentation_from_dict(doc)
    assert err.value.field == field


def test_tau_power_in_exact_tensor_entries_names_its_field():
    host = group_algebra(cyclic_group(2))
    doc = io.leg_tensor_to_dict(LegTensor(host, 1, {(0,): Fraction(1)}))
    doc["entries"] = {"1": "1+tau"}
    with pytest.raises(SchemaError, match="power of tau") as err:
        io.leg_tensor_from_dict(doc)
    assert err.value.field == "entries"


def test_tau_to_the_zero_in_an_exact_ring_is_its_coefficient():
    doc = _z2_doc()
    doc["unit"] = ["tau^0", "(1+tau)-tau-1"]
    doc["mult"]["0,0"] = [[0, "3*tau*tau^-1/3"]]
    pres = io.presentation_from_dict(doc)
    assert pres.unit == [1, 0]
    assert all(type(v) is Fraction for v in pres.unit)
    assert pres.mult[(0, 0)] == {0: 1}


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.__setitem__("mult", {"0,nope": []}), "mult"),
        (lambda d: d.__setitem__("mult", {"0": []}), "mult"),
        (lambda d: d.__setitem__("basis", ["a"]), "basis"),
        (lambda d: d.__setitem__("counit", ["1"]), "counit"),
        (lambda d: d.pop("dim"), "dim"),
        (lambda d: d.__setitem__("coproduct", {"9": []}), "coproduct"),
    ],
)
def test_malformed_fields_named(mutate, field):
    doc = io.presentation_to_dict(group_algebra(cyclic_group(2)))
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        io.presentation_from_dict(doc)
    assert err.value.field == field


def _shipped_ks3():
    path = resources.files("hopftwist").joinpath("data/ks3_hopf.json")
    return json.loads(path.read_text())


def test_antipode_scalar_dividing_by_zero_names_its_field():
    doc = _shipped_ks3()
    doc["antipode"][0][0] = "1/0"
    with pytest.raises(SchemaError) as err:
        io.presentation_from_dict(doc)
    assert err.value.field == "antipode"
    msg = str(err.value)
    assert "division by zero" in msg and "'1/0'" in msg
    assert "line" not in msg


def test_malformed_mult_scalar_names_its_field():
    doc = _shipped_ks3()
    doc["mult"]["0,1"][0][1] = "2 + )"
    with pytest.raises(SchemaError) as err:
        io.presentation_from_dict(doc)
    assert err.value.field == "mult"
    assert "column 5 of '2 + )'" in str(err.value)


def test_algebra_without_coproduct_loads_as_plain_algebra():
    doc = io.presentation_to_dict(group_algebra(cyclic_group(2)))
    for key in ("coproduct", "counit", "antipode", "commutative", "cocommutative"):
        doc.pop(key)
    pres = io.presentation_from_dict(doc)
    assert not hasattr(pres, "coproduct")
    assert pres.dim == 2


def test_group_round_trip_and_bad_table():
    text = io.dump_json(io.group_to_dict(symmetric_3()))
    back = io.group_from_dict(json.loads(text))
    assert io.dump_json(io.group_to_dict(back)) == text
    with pytest.raises(SchemaError) as err:
        io.group_from_dict({"order": 2, "table": [[0, 0], [0, 0]]})
    assert err.value.field == "table"


def test_group_cochain_round_trip():
    _, F, _ = fano_octonions()
    text = io.dump_json(io.group_cochain_to_dict(F))
    back = io.group_cochain_from_dict(json.loads(text))
    assert back.table == F.table
    assert io.dump_json(io.group_cochain_to_dict(back)) == text


def test_group_cochain_rejects_zero_value():
    _, F, _ = fano_octonions()
    doc = io.group_cochain_to_dict(F)
    doc["table"]["0,0"] = "0"
    with pytest.raises(SchemaError) as err:
        io.group_cochain_from_dict(doc)
    assert err.value.field == "table"


def test_chain_round_trip_and_failure():
    C = ChainComplexWindow({0: 2, 1: 2, 2: 1}, {1: [[1, 0], [0, 0]], 2: [[0, 1]]})
    text = io.dump_json(io.chain_to_dict(C))
    back = io.chain_from_dict(json.loads(text))
    assert io.dump_json(io.chain_to_dict(back)) == text
    # d*d != 0 must be refused
    bad = {"dims": {"0": 1, "1": 1, "2": 1}, "d": {"1": [["1"]], "2": [["1"]]}}
    with pytest.raises(SchemaError) as err:
        io.chain_from_dict(bad)
    assert err.value.field == "d"


def test_leg_tensor_round_trip():
    host = group_algebra(cyclic_group(3))
    t = LegTensor(host, 2, {(1, 2): Fraction(1, 2), (0, 0): Fraction(3)})
    text = io.dump_json(io.leg_tensor_to_dict(t))
    back = io.leg_tensor_from_dict(json.loads(text))
    assert back.arity == 2 and back.data == t.data
    assert io.dump_json(io.leg_tensor_to_dict(back)) == text


def test_leg_tensor_bad_entry_key():
    host = group_algebra(cyclic_group(3))
    doc = io.leg_tensor_to_dict(LegTensor(host, 2, {(0, 0): Fraction(1)}))
    doc["entries"] = {"0,9": "1"}
    with pytest.raises(SchemaError) as err:
        io.leg_tensor_from_dict(doc)
    assert err.value.field == "entries"


@pytest.mark.parametrize(
    "graded",
    [group_graded(cyclic_group(2)), laurent_window_graded(2)],
    ids=["group", "window"],
)
def test_graded_round_trip(graded):
    text = io.dump_json(io.graded_to_dict(graded))
    back = io.graded_from_dict(json.loads(text))
    assert io.dump_json(io.graded_to_dict(back)) == text
    assert back.degree == graded.degree


def test_graded_bad_degree_assignment():
    doc = io.graded_to_dict(group_graded(cyclic_group(2)))
    doc["degree"] = [1, 0]
    with pytest.raises(SchemaError) as err:
        io.graded_from_dict(doc)
    assert err.value.field == "degree"


def test_heis_round_trip():
    e = HeisElement.monomial(3, 1, -1, 2, Fraction(1, 2), 5).add(
        HeisElement.monomial(3, 0, 2, 0, 0, 1)
    )
    items = io.heis_to_list(e)
    back = io.heis_from_list(json.loads(json.dumps(items)), 3)
    assert back == e


def test_heis_rejects_bad_rational():
    with pytest.raises(SchemaError) as err:
        io.heis_from_list([{"m": 0, "n": 1, "p": 0, "c": 0.5, "coeff": "1"}], 3)
    assert err.value.field == "c"


def test_octonion_csv_shape():
    lines = io.octonion_table_csv().strip().split("\n")
    assert lines[0] == "i,j,k,sign"
    assert len(lines) == 65
    assert "1,2,3,1" in lines and "2,1,3,-1" in lines
    # imaginary units square to -e0
    for i in range(1, 8):
        assert "%d,%d,0,-1" % (i, i) in lines


def test_describe_shapes():
    host = group_algebra(cyclic_group(3))
    samples = [
        (io.presentation_to_dict(group_algebra(symmetric_3())), "hopf algebra"),
        (io.group_to_dict(symmetric_3()), "finite group"),
        (io.group_cochain_to_dict(fano_octonions()[1]), "group cochain"),
        (
            io.chain_to_dict(ChainComplexWindow({0: 1, 1: 1}, {1: [[0]]})),
            "chain complex",
        ),
        (
            io.leg_tensor_to_dict(LegTensor(host, 2, {(0, 0): Fraction(1)})),
            "tensor over",
        ),
        (io.graded_to_dict(group_graded(cyclic_group(2))), "graded algebra"),
        (io.heis_to_list(HeisElement.monomial(3, 1, 0, 0, 0, 1)), "nilmanifold"),
    ]
    for doc, prefix in samples:
        lines = io.describe_doc(doc)
        assert lines and lines[0].startswith(prefix)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"dim": True, "basis": ["e"], "unit": ["1"], "mult": {"0,0": [[0, "1"]]}}, "dim"),
        ({"group": {"order": 1, "table": [[0]]}, "arity": True, "table": {"0": "1"}}, "arity"),
        ({"order": True, "table": [[0]]}, "order"),
        ([{"m": True, "n": 0, "p": 0, "coeff": "1"}], "m"),
    ],
    ids=["dim", "arity", "group-order", "monomial-m"],
)
def test_a_bool_is_not_an_integer(doc, field):
    with pytest.raises(SchemaError) as err:
        io.describe_doc(doc)
    assert err.value.field == field


def test_describe_parses_a_nilmanifold_list():
    # the order is the largest hbar valuation bound of the coefficients,
    # so a coefficient is never truncated away
    elem = HeisElement(4, {(1, 2, 0, 0): Series.hbar(4, 4), (0, -1, 1, Fraction(1, 2)): 3})
    doc = io.heis_to_list(elem)
    assert io.describe_doc(doc) == ["nilmanifold element: 2 monomials", "degrees: [-1, 2]"]
    doc.append({"m": 1, "n": 2, "p": 0, "c": "0", "coeff": "-h^4"})
    assert io.describe_doc(doc) == ["nilmanifold element: 1 monomials", "degrees: [-1]"]
    with pytest.raises(SchemaError) as err:
        io.describe_doc([{"m": 0, "n": 0, "p": 0, "coeff": "h^65"}])
    assert err.value.field == "coeff"
    with pytest.raises(SchemaError) as err:
        io.describe_doc([{"m": 0, "n": 0, "p": 0, "coeff": "h+"}])
    assert err.value.field == "coeff"


def test_describe_unrecognized():
    with pytest.raises(SchemaError):
        io.describe_doc({"mystery": 1})


def test_load_json_file_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"open": [1, 2\n')
    with pytest.raises(ParseError) as err:
        io.load_json_file(str(p))
    assert err.value.line >= 1 and err.value.column >= 1


# ---------------------------------------------------------------------------
# dump(load(x)) == x for every document kind, x a document the layer wrote


ROUND_TRIP = settings(max_examples=15, deadline=None)


def _scalars(rng, order, roots=True):
    """A seeded scalar: rational, or q + c z(N, k) with N in 3, 4, 12 and
    0 < k < N; over a series ring a polynomial in h whose coefficients may
    carry tau."""
    def exact():
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if roots and rng.random() < 0.4:
            N = rng.choice((3, 4, 12))
            k = rng.randint(1, N - 1)
            q = q + rng.randint(1, 3) * root_of_unity(k, N)
        return q

    if order is None:
        return exact()
    h = Series.hbar(order)
    value = exact()
    for k in range(1, order + 1):
        c = exact()
        if rng.random() < 0.3:
            c = c * TauLaurent.tau(rng.choice((-1, 1, 2)))
        value = value + h ** k * c
    return value


def _group(rng):
    G = rng.choice([cyclic_group(3), cyclic_group(4), symmetric_3(), elementary_abelian_2(2)])
    perm = list(range(G.order))
    rng.shuffle(perm)
    back = {p: i for i, p in enumerate(perm)}
    table = [[perm[G.mul(back[x], back[y])] for y in range(G.order)] for x in range(G.order)]
    return FiniteGroup(G.order, table, ["g%d" % perm.index(i) for i in range(G.order)])


def _presentation(rng):
    order = rng.choice((None, 1, 2, 3))
    ring = ScalarRing(hbar_order=order)
    kind = rng.randrange(3)
    if kind == 0:
        return (group_algebra if rng.random() < 0.5 else dual_group_hopf)(_group(rng), ring)
    dim = rng.randint(1, 3)
    mult = {
        (i, j): {k: _scalars(rng, order) for k in rng.sample(range(dim), rng.randint(0, dim))}
        for i in range(dim)
        for j in range(dim)
        if rng.random() < 0.7
    }
    unit = [_scalars(rng, order) if rng.random() < 0.5 else 0 for _ in range(dim)]
    if kind == 1:
        return AlgebraPresentation(dim, ["b%d" % i for i in range(dim)], ring, mult, unit)
    cop = {i: {(i, i): _scalars(rng, order)} for i in range(dim) if rng.random() < 0.8}
    # unitriangular, so invertible
    antipode = [
        [int(i == j) + (rng.randint(-2, 2) if i < j else 0) for j in range(dim)] for i in range(dim)
    ]
    return HopfPresentation(
        dim, ["b%d" % i for i in range(dim)], ring, mult, unit, cop,
        [_scalars(rng, order) for _ in range(dim)], antipode,
        name=rng.choice((None, "h%d" % dim)),
    )


def _document(kind, rng):
    """(to_dict, from_dict, a document written by to_dict) of one kind."""
    if kind == "presentation":
        doc = io.presentation_to_dict(_presentation(rng))
        return io.presentation_to_dict, io.presentation_from_dict, doc
    if kind == "group":
        return io.group_to_dict, io.group_from_dict, io.group_to_dict(_group(rng))
    if kind == "group-cochain":
        G = _group(rng)
        arity = rng.randint(1, 2)
        table = {key: _scalars(rng, None) or Fraction(1) for key in _keys(G.order, arity)}
        doc = io.group_cochain_to_dict(GroupCochain(G, arity, table))
        return io.group_cochain_to_dict, io.group_cochain_from_dict, doc
    if kind == "chain":
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        # d[1] maps degree 1 to degree 0: b rows of a entries
        d = {1: [[_scalars(rng, None, roots=False) for _ in range(a)] for _ in range(b)]}
        doc = io.chain_to_dict(ChainComplexWindow({0: a, 1: b}, d))
        return io.chain_to_dict, io.chain_from_dict, doc
    if kind == "leg-tensor":
        host = _presentation(rng)
        arity = rng.randint(1, 3)
        entries = {
            key: _scalars(rng, host.ring.hbar_order)
            for key in rng.sample(_keys(host.dim, arity), min(5, host.dim**arity))
        }
        tensor = LegTensor(host, arity, entries)
        return io.leg_tensor_to_dict, io.leg_tensor_from_dict, io.leg_tensor_to_dict(tensor)
    if kind == "graded":
        if rng.random() < 0.5:
            graded = group_graded(_group(rng))
        else:
            graded = laurent_window_graded(rng.randint(1, 3))
        return io.graded_to_dict, io.graded_from_dict, io.graded_to_dict(graded)
    order = rng.randint(1, 3)
    elem = HeisElement.zero(order)
    for _ in range(rng.randint(0, 4)):
        m, n, p = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2)
        c = Fraction(rng.randint(-3, 3), 2)
        elem = elem.add(HeisElement(order, {(m, n, p, c): _scalars(rng, order)}))
    return (
        io.heis_to_list,
        lambda items: io.heis_from_list(items, order),
        io.heis_to_list(elem),
    )


def _keys(dim, arity):
    return list(product(range(dim), repeat=arity))


KINDS = ["presentation", "group", "group-cochain", "chain", "leg-tensor", "graded", "heis"]


def test_rational_value_held_at_a_conductor_records_none():
    """h * (3 + z(4, 2)) + 1 has the rational coefficient 2 held at
    conductor 4: it is written as a rational, so the document records no
    conductor, and dump(load(x)) is x."""
    h = Series.hbar(2)
    value = h * (3 + root_of_unity(2, 4)) + 1
    pres = AlgebraPresentation(1, ["b0"], ScalarRing(hbar_order=2), {(0, 0): {0: value}}, [value])
    doc = io.presentation_to_dict(pres)
    assert doc["scalar"] == {"conductor": None, "hbar_order": 2}
    text = io.dump_json(doc)
    back = io.presentation_to_dict(io.presentation_from_dict(json.loads(text)))
    assert back == doc
    assert io.dump_json(back) == text


@pytest.mark.parametrize("kind", KINDS)
@ROUND_TRIP
@given(seed=st.integers(0, 2**32))
def test_dump_of_load_is_the_document(kind, seed):
    to_dict, from_dict, doc = _document(kind, random.Random(seed))
    text = io.dump_json(doc)
    back = to_dict(from_dict(json.loads(text)))
    assert back == doc
    assert io.dump_json(back) == text

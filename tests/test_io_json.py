"""Round trips and failure modes for the JSON/CSV layer."""

import json
from fractions import Fraction
from importlib import resources

import pytest

from hopftwist import io_json as io
from hopftwist.constructors import (
    ChainComplexWindow,
    cyclic_group,
    dual_group_hopf,
    group_algebra,
    symmetric_3,
    taft,
)
from hopftwist.errors import ParseError, SchemaError
from hopftwist.graded import group_graded, laurent_window_graded
from hopftwist.group_cohomology import fano_octonions
from hopftwist.heis_torus import HeisElement
from hopftwist.multilinear import LegTensor, verify_hopf, with_series_ring
from hopftwist.scalars import Cyclotomic


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


def test_describe_unrecognized():
    with pytest.raises(SchemaError):
        io.describe_doc({"mystery": 1})


def test_load_json_file_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"open": [1, 2\n')
    with pytest.raises(ParseError) as err:
        io.load_json_file(str(p))
    assert err.value.line >= 1 and err.value.column >= 1

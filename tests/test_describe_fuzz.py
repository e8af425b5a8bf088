"""Fuzzing the describe contract: whatever the file holds, `hopftwist
describe` returns 0, or 2 with one `error:` line, and never raises.

The inputs are raw bytes, and documents of every kind (the shipped kS3
Hopf algebra and one small document of each other kind) with fields
deleted or replaced by JSON atoms.  Every single replacement and deletion
of the small documents is swept; hypothesis draws up to three at once.
"""

import contextlib
import copy
import io
import json
import time
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist.cli import main

_Z2 = {"order": 2, "table": [[0, 1], [1, 0]]}
_HOPF = {
    "dim": 2,
    "basis": ["e", "g"],
    "unit": ["1", "0"],
    "mult": {"0,0": [[0, "1"]], "0,1": [[1, "1"]], "1,0": [[1, "1"]], "1,1": [[0, "1+h"]]},
    "coproduct": {"0": [[0, 0, "1"]], "1": [[1, 1, "1"]]},
    "counit": ["1", "1"],
    "antipode": [["1", "0"], ["0", "z(3,1)"]],
    "scalar": {"conductor": 3, "hbar_order": 2},
}
SMALL = {
    "hopf": _HOPF,
    "tensor": {"host": _HOPF, "arity": 2, "entries": {"0,1": "h", "1,1": "-1/2"}},
    "group": _Z2,
    "cochain": {
        "group": _Z2,
        "arity": 2,
        "table": {"0,0": "1", "0,1": "1", "1,0": "1", "1,1": "z(4,1)"},
    },
    "chain": {"dims": {"0": 1, "1": 2}, "d": {"1": [["1"], ["-1"]]}},
    "graded": {
        "dim": 2,
        "basis": ["e", "g"],
        "unit": ["1", "0"],
        "mult": {"0,0": [[0, "1"]], "0,1": [[1, "1"]], "1,0": [[1, "1"]], "1,1": [[0, "1"]]},
        "grading": {"group": _Z2},
        "degree": [0, 1],
    },
    "window": {
        "dim": 1,
        "basis": ["e"],
        "unit": ["1"],
        "mult": {"0,0": [[0, "1"]]},
        "grading": {"window": 2},
        "degree": [0],
    },
    "nilmanifold": [{"m": 1, "n": 0, "p": 1, "c": "1/2", "coeff": "h"}],
}
KS3 = json.loads(resources.files("hopftwist").joinpath("data/ks3_hopf.json").read_text())
DOCS = {**SMALL, "ks3": KS3}

ATOMS = [
    None, True, False, -1, -64, 65, 1.5, "", "h", "tau", "z(3,1)", "1/0", "e1",
    [], {}, [[]], [{}], {"0": []}, {"0": {}},
]

_DELETE = object()

# the time one describe may take, far above the milliseconds it needs
BOUND_S = 2


def _paths(doc, at=()):
    """The path of every value within doc, doc itself first."""
    yield at
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, at + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, at + (i,))


def _mutated(doc, path, atom):
    """doc with the value at path deleted (atom is _DELETE) or replaced."""
    if not path:
        return doc if atom is _DELETE else atom
    out = copy.deepcopy(doc)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if atom is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = atom
    return out


def _describe(path, data):
    """main(["describe", path]) on a file holding data, checked against the
    contract: exit 0 with nothing on stderr, or exit 2 with one `error:`
    line, within BOUND_S.  Returns the exit code."""
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["describe", str(path)])
    elapsed = time.perf_counter() - start
    assert elapsed < BOUND_S, (data[:200], elapsed)
    text = err.getvalue()
    if code == 0:
        assert text == "", data[:200]
    else:
        assert code == 2, (data[:200], code)
        assert text.startswith("error:") and text.count("\n") == 1, (data[:200], text)
    return code


def test_every_single_edit_of_the_small_documents(tmp_path):
    path = tmp_path / "doc.json"
    for kind, doc in SMALL.items():
        # the sweep starts from a valid document
        assert _describe(path, json.dumps(doc).encode()) == 0, kind
        for at in list(_paths(doc)):
            for atom in ATOMS + ([_DELETE] if at else []):
                _describe(path, json.dumps(_mutated(doc, at, atom)).encode())


@st.composite
def edited(draw):
    """A document of any kind with one to three fields deleted or replaced
    by atoms, as JSON text."""
    doc = DOCS[draw(st.sampled_from(sorted(DOCS)))]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(list(_paths(doc))))
        atom = draw(st.sampled_from(ATOMS + ([_DELETE] if at else [])))
        doc = _mutated(doc, at, atom)
    return json.dumps(doc).encode()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), edited()))
def test_describe_exits_zero_or_two(tmp_path_factory, data):
    _describe(tmp_path_factory.getbasetemp() / "fuzz.json", data)

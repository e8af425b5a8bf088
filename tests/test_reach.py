"""Every function and method of the package is reached, or says why not.

One child interpreter enables a cProfile.Profile(builtins=False) before it
imports hopftwist (suites._BODIES runs _body at import) and runs the
census:
- `verify all --timings --json -`;
- moyal, heis-torus, pbw-gcl and sharp-map with a --theta, and sharp-map
  with --theta edge inputs (THETA_RUNS);
- `octonion-table --csv PATH`;
- `describe` of each small document of test_describe_fuzz, and of a Hopf
  document whose antipode is a dense block over Q(z_3);
- one round each of the in-process benchmark workloads cochain-series and
  cochain-exact (perfbench/workloads.py is imported and only read).

The child records the (file, first line) of every code object of the
package that the profile saw called; the profiler's C hook costs far less
than a Python sys.settrace function and reaches the same set.  With ast, the parent lists every module-level
def and every method of a top-level class, keyed the same way: for a
decorated def the first line is its first decorator's, which is the
co_firstlineno of its code object.  Dunder methods are exempt.  Every
other function that no run reaches must be in ALLOWED with one of the
four REASONS, and every entry of ALLOWED must name a function that exists
and is not reached, so the list shrinks as its functions get a caller or
go.  A function that nothing reaches is deleted, or reached by a run
added to the census.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_describe_fuzz import SMALL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hopftwist"

# (suite, theta, exit code); the sharp-map runs are the edge inputs: a
# refused negative power, a division by zero and a theta that truncates
# to zero (the degree bound), a constant, a tau power and nested powers
THETA_RUNS = [
    ("moyal", "h/2+h^2", 0),
    ("heis-torus", "h+z(4,1)*h^2", 0),
    ("pbw-gcl", "h-h^3/3", 0),
    ("sharp-map", "h", 0),
    ("sharp-map", "h^2", 0),
    ("sharp-map", "1/(2+z(3,1))*h", 0),
    ("sharp-map", "h^-1", 2),
    ("sharp-map", "1/0", 2),
    ("sharp-map", "(h)^(2)", 0),
    ("sharp-map", "h^5", 2),
    ("sharp-map", "0", 0),
    ("sharp-map", "tau^2*h", 0),
]

# the small Hopf document with an antipode that is one 2 x 2 block over
# Q(z_3): its invertibility is decided on integer columns
DOCS = {
    **SMALL,
    "dense-antipode": {**SMALL["hopf"], "antipode": [["1", "z(3,1)"], ["1", "1"]]},
}
# every document describes
DESCRIBE_CODES = dict.fromkeys(DOCS, 0)

FAILING = "reached only on a failing check or on refused input"
NOTES = "a construction of the notes that a check is still to use"
WRITER = "an io_json writer: the reader round-trip tests use it as their oracle"
REFERENCE = "a reference definition that a differential test compares a fast path against"
REASONS = (FAILING, NOTES, WRITER, REFERENCE)

ALLOWED = {
    "grammar._frac_str": FAILING,
    "grammar._cyclo_parts": FAILING,
    "grammar._coeff_parts": FAILING,
    "grammar._mono": FAILING,
    "grammar._join": FAILING,
    "grammar._tau_parts": FAILING,
    "grammar.render": FAILING,
    "group_cohomology._render": FAILING,
    "reporting.CheckOutcome.error": FAILING,
    "constructors.direct_product": NOTES,
    "sample_hosts.WindowComodule.report": NOTES,
    "sample_hosts.chain_to_comodule": NOTES,
    "sample_hosts.comodule_to_chain": NOTES,
    "hopf_cochain.unit_cochain": NOTES,
    "hopf_cochain.hopf_coboundary": NOTES,
    "hopf_cochain.cocycle_report": NOTES,
    "hopf_cochain._power": NOTES,
    "hopf_cochain.gauge_act": NOTES,
    "hopf_cochain.gauge_equivariance_report": NOTES,
    "io_json._conductors": WRITER,
    "io_json._conductor_of": WRITER,
    "io_json.presentation_to_dict": WRITER,
    "io_json.group_to_dict": WRITER,
    "io_json.group_cochain_to_dict": WRITER,
    "io_json.chain_to_dict": WRITER,
    "io_json.leg_tensor_to_dict": WRITER,
    "io_json.graded_to_dict": WRITER,
    "io_json.heis_to_list": WRITER,
    "io_json.dump_json": WRITER,
    "group_cohomology.TorusCoboundary.exponent": REFERENCE,
    "group_cohomology.TorusCoboundary.value": REFERENCE,
}

CHILD = r"""
import sys

import cProfile

src, perfbench, runs_path = sys.argv[1:]
sys.dont_write_bytecode = True
profile = cProfile.Profile(builtins=False)
profile.enable()

import contextlib
import io
import json

from hopftwist.cli import main

with open(runs_path, encoding="utf-8") as fh:
    runs = json.load(fh)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in runs]
    sys.path.insert(0, perfbench)
    import workloads

    wrong = [
        case.label
        for build in (workloads.build_cochain_series, workloads.build_cochain_exact)
        for case in build(1, 1)[0]
        if case.run() != case.expected
    ]
profile.disable()
reached = {
    (code.co_filename[len(src) + 1:], code.co_firstlineno)
    for code in (entry.code for entry in profile.getstats())
    if not isinstance(code, str) and code.co_filename.startswith(src)
}
print(json.dumps({"codes": codes, "wrong": wrong, "reached": sorted(reached)}))
"""


def census(tmp_path):
    """{(file, first line)} of the package code that the census reaches.
    Each run must end with its expected exit code and each workload case
    with its expected verdict, so that no run is cut short unseen."""
    runs = [(["verify", "all", "--timings", "--json", "-"], 0)]
    runs += [(["verify", suite, "--theta", theta], code) for suite, theta, code in THETA_RUNS]
    runs.append((["octonion-table", "--csv", str(tmp_path / "octonions.csv")], 0))
    for kind, doc in DOCS.items():
        path = tmp_path / ("%s.json" % kind)
        path.write_text(json.dumps(doc), encoding="utf-8")
        runs.append((["describe", str(path)], DESCRIBE_CODES[kind]))
    runs_path = tmp_path / "runs.json"
    runs_path.write_text(json.dumps([argv for argv, _ in runs]), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), str(ROOT / "perfbench"), str(runs_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["codes"] == [code for _, code in runs]
    assert out["wrong"] == []
    return {tuple(key) for key in out["reached"]}


def first_line(node):
    """The co_firstlineno of a def's code object: its first decorator's
    line, or else the def line."""
    return node.decorator_list[0].lineno if node.decorator_list else node.lineno


def definitions(sources):
    """{(file, first line): 'module.qualname'} of the module-level defs and
    the methods of top-level classes of {file: source}, dunders left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = {}
    for name, source in sources.items():
        module = name[:-3]
        for node in ast.parse(source).body:
            if isinstance(node, defs):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                members = [
                    (node.name + "." + item.name, item)
                    for item in node.body
                    if isinstance(item, defs)
                ]
            else:
                continue
            for qualname, item in members:
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    out[name, first_line(item)] = module + "." + qualname
    return out


def reach_faults(sources, reached, allowed):
    """(unreached functions not in allowed, entries of allowed that are
    reached or do not exist), each sorted."""
    defs = definitions(sources)
    unreached = {name for key, name in defs.items() if key not in reached}
    return sorted(unreached - set(allowed)), sorted(set(allowed) - unreached)


def test_every_function_is_reached_or_allowed(tmp_path):
    assert set(ALLOWED.values()) <= set(REASONS)
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert reach_faults(sources, census(tmp_path), ALLOWED) == ([], [])


SYNTHETIC = {
    "a.py": (
        "def used():\n"  # 1
        "    pass\n"
        "def unused():\n"  # 3
        "    pass\n"
        "class C:\n"
        "    def __init__(self):\n"  # 6, a dunder
        "        pass\n"
        "    @staticmethod\n"  # 8
        "    @other\n"
        "    def made():\n"  # 10
        "        pass\n"
        "    def kept(self):\n"  # 12
        "        pass\n"
    ),
}


def test_an_unreached_function_is_reported():
    reached = {("a.py", 1), ("a.py", 8)}
    assert reach_faults(SYNTHETIC, reached, {"a.C.kept": NOTES}) == (["a.unused"], [])


def test_a_stale_allowed_entry_fails():
    reached = {("a.py", 1), ("a.py", 3), ("a.py", 8)}
    allowed = {"a.used": NOTES, "a.C.kept": NOTES, "a.gone": NOTES}
    assert reach_faults(SYNTHETIC, reached, allowed) == ([], ["a.gone", "a.used"])


def test_a_decorated_def_is_keyed_by_its_first_decorator():
    assert definitions(SYNTHETIC)["a.py", 8] == "a.C.made"
    # the def line itself is not the key of the code object
    reached = {("a.py", 1), ("a.py", 3), ("a.py", 10), ("a.py", 12)}
    assert reach_faults(SYNTHETIC, reached, {}) == (["a.C.made"], [])


def test_the_code_object_of_a_decorated_def_starts_at_its_decorator():
    namespace = {}
    exec(compile(SYNTHETIC["a.py"], "a.py", "exec"), {"other": lambda f: f}, namespace)
    assert namespace["C"].made.__code__.co_firstlineno == 8

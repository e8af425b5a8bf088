"""Each `verify <suite>` process loads only the modules its suite calls.

Without bytecode on disk every module a process imports is compiled from
source first, so an import a suite never calls costs start-up time and,
when it is the largest compile, peak memory.  The sets below are pinned,
and a guard run under sys.setprofile checks that each module a suite's
run loads, but `errors` (which the package itself imports), has a
function the run calls.  And every module but the CLI's own is loaded by
some suite, so none is left that nothing the verifier runs reaches.

The axiom batteries (`batteries`), the sample hosts (`sample_hosts`) and
the suite bodies are loaded only by what runs them: the cochain
workloads' import line and a twist without a module load none of them,
`describe` decodes its file before it loads `io_json`, and neither the
CLI's import nor the cochain import line loads `json`.
"""

import ast
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import hopftwist

# what `python -m hopftwist.cli <argv[2:]>` runs, with the exit code, the
# loaded modules and, when argv[1] is "1", the modules with a called
# function printed last: a function is a code object that is neither a
# module body, a class body nor a comprehension, and a call made while a
# module body runs (an import) is not counted
_CHILD = """
import json, runpy, sys

called, importing = set(), [0]

def profile(frame, event, arg):
    code = frame.f_code
    module = frame.f_globals.get("__name__", "")
    if code.co_name == "<module>":
        if module.startswith("hopftwist."):
            importing[0] += 1 if event == "call" else -1 if event == "return" else 0
    elif event == "call" and not importing[0] and code.co_flags & 1:
        if not code.co_name.startswith("<"):
            called.add(module)

profiled = sys.argv[1] == "1"
sys.argv = ["hopftwist"] + sys.argv[2:]
if profiled:
    sys.setprofile(profile)
try:
    runpy.run_module("hopftwist.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
sys.setprofile(None)
mods = sorted(m for m in sys.modules if m.startswith("hopftwist."))
print(json.dumps([code, mods, sorted(m for m in called if m.startswith("hopftwist."))]))
"""

# every verify process: the package, the CLI's suite table and its report
BASE = {"errors", "reporting", "suites"}

LOADS = {
    "hopf-axioms": {"batteries", "constructors", "multilinear", "sample_hosts", "scalars"},
    "group-cohomology": {
        "batteries",
        "cochain_engine",
        "constructors",
        "group_cohomology",
        "multilinear",
        "scalars",
    },
    "octonions": {
        "batteries",
        "cochain_engine",
        "constructors",
        "group_cohomology",
        "multilinear",
        "scalars",
    },
    "pbw-gcl": {"cochain_engine", "pbw", "scalars"},
    "moyal": {"cochain_engine", "pbw", "scalars"},
    "graded-galois": {"constructors", "graded", "linalg", "multilinear", "scalars"},
    "sharp-map": {"weights"},
    "heis-torus": {"heis_torus", "scalars"},
    "hopf-cochain": {
        "batteries",
        "cochain_engine",
        "cochain_suite",
        "constructors",
        "group_cohomology",
        "hopf_cochain",
        "linalg",
        "multilinear",
        "pbw",
        "scalars",
    },
}

# a malformed --theta is parsed, then refused before any suite runs
THETA = ["verify", "heis-torus", "--theta", "1+h", "--seed", "5"]
THETA_LOADS = {"grammar", "scalars"}

# the CLI, and what describe and octonion-table load
NOT_SUITE_MODULES = {"cli", "io_json"}

# perfbench's IMPORTS for the cochain-series and cochain-exact workloads
COCHAIN_IMPORT = "import hopftwist.hopf_cochain, hopftwist.constructors"
COCHAIN_LOADS = {
    "cochain_engine",
    "constructors",
    "errors",
    "hopf_cochain",
    "multilinear",
    "reporting",
    "scalars",
}


def _env():
    src = os.path.dirname(os.path.dirname(hopftwist.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(argv, profiled=False):
    env = _env()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, "1" if profiled else "0"] + argv,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    code, mods, called = json.loads(proc.stdout.splitlines()[-1])
    short = lambda names: {m[len("hopftwist."):] for m in names}
    return code, short(mods), short(called)


@pytest.mark.parametrize("suite", sorted(LOADS))
def test_verify_loads_only_what_its_suite_runs(suite):
    code, mods, _ = _child(["verify", suite, "--seed", "5"])
    assert code == 0
    assert mods == BASE | LOADS[suite]


@pytest.mark.parametrize("suite", ["group-cohomology", "octonions"])
def test_group_cochain_suites_reach_the_engine_without_hopf_cochain(suite):
    # a group cochain is a pointwise cochain over k^G (constructors), and
    # its coboundary is cochain_engine's; the Hopf cochain layer stays out.
    # test_verify_loads_only_what_its_suite_runs holds each run to LOADS
    assert {"cochain_engine", "constructors"} <= LOADS[suite]
    assert "hopf_cochain" not in LOADS[suite]


def test_malformed_theta_loads_no_suite_module():
    code, mods, _ = _child(THETA)
    assert code == 2
    assert mods == BASE | THETA_LOADS


def test_describe_of_a_malformed_file_loads_no_io_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"order": 2,\n  "table": [}\n')
    code, mods, _ = _child(["describe", str(path)])
    # refused before io_json, or anything it imports, is loaded
    assert code == 2
    assert mods == BASE


def _fresh(statement, *flags):
    """The hopftwist modules a fresh interpreter (started with flags) has
    loaded after statement, and whether it has loaded json."""
    proc = subprocess.run(
        [
            sys.executable,
            *flags,
            "-c",
            statement + "\nimport sys\n"
            "print(repr(('json' in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('hopftwist.')))))",
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    json_loaded, mods = ast.literal_eval(proc.stdout.splitlines()[-1])
    return json_loaded, {m[len("hopftwist."):] for m in mods}


def test_importing_the_cli_loads_four_modules():
    assert _fresh("import hopftwist.cli")[1] == {"cli"} | BASE


def test_the_cochain_import_line_loads_no_battery_host_or_suite():
    assert _fresh(COCHAIN_IMPORT)[1] == COCHAIN_LOADS


@pytest.mark.parametrize("statement", ["import hopftwist.cli", COCHAIN_IMPORT])
def test_json_is_not_loaded_by_an_import(statement):
    # -S: a bare interpreter, whatever site would import
    assert _fresh(statement, "-S")[0] is False


# twists checked by verify_quasi: of k[Z2] over hbar-series without a
# module, and the octonions' Fano cochain with the module k^G8 on k[G8]
_TWIST = COCHAIN_IMPORT + """
import random
from hopftwist.constructors import cyclic_group, group_algebra
from hopftwist.hopf_cochain import random_counital_two_cochain, twist, verify_quasi
from hopftwist.multilinear import with_series_ring
H = with_series_ring(group_algebra(cyclic_group(2)), 2)
F = random_counital_two_cochain(H, random.Random(5))
assert all(ck.ok for ck in verify_quasi(twist(H, F)))
"""
_MODULE_TWIST = COCHAIN_IMPORT + """
from hopftwist.group_cohomology import fano_octonions
from hopftwist.hopf_cochain import HopfCochain, twist, verify_quasi
from hopftwist.constructors import dual_action_module
from hopftwist.multilinear import LegTensor
G8, fano, _ = fano_octonions()
mod = dual_action_module(G8)
value = LegTensor(mod.host, 2, dict(fano.table))
assert all(ck.ok for ck in verify_quasi(twist(mod.host, HopfCochain(mod.host, 2, value, value), mod)))
"""


def test_a_twist_without_a_module_loads_no_battery():
    assert _fresh(_TWIST)[1] == COCHAIN_LOADS


def test_the_octonion_module_twist_loads_the_batteries():
    assert _fresh(_MODULE_TWIST)[1] == COCHAIN_LOADS | {"batteries", "group_cohomology"}


@pytest.mark.parametrize("suite", sorted(LOADS))
def test_every_loaded_module_has_a_called_function(suite):
    code, mods, called = _child(["verify", suite, "--seed", "5"], profiled=True)
    assert code == 0
    assert mods - called - {"errors"} == set()


def test_every_module_is_loaded_by_some_suite():
    # a module no verify run loads is one nothing the verifier runs reaches
    modules = {m.name for m in pkgutil.iter_modules(hopftwist.__path__)}
    loaded = BASE | THETA_LOADS | set().union(*LOADS.values())
    assert modules - NOT_SUITE_MODULES - loaded == set()

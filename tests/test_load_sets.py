"""Each `verify <suite>` process loads only the modules its suite calls.

Without bytecode on disk every module a process imports is compiled from
source first, so an import a suite never calls costs start-up time.  The
sets below are pinned, and a guard run under sys.setprofile checks that
each module a suite's run loads, but `errors` (which the package itself
imports), has a function the run calls.  And every module but the CLI's own is loaded by
some suite, so none is left that nothing the verifier runs reaches.
"""

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
    "hopf-axioms": {"constructors", "multilinear", "scalars"},
    "group-cohomology": {"constructors", "group_cohomology", "multilinear", "scalars"},
    "octonions": {"group_cohomology", "multilinear", "scalars"},
    "pbw-gcl": {"cochain_engine", "pbw", "scalars"},
    "moyal": {"cochain_engine", "pbw", "scalars"},
    "graded-galois": {"constructors", "graded", "linalg", "multilinear", "scalars"},
    "sharp-map": {"weights"},
    "heis-torus": {"heis_torus", "scalars"},
    "hopf-cochain": {
        "cochain_engine",
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


def _child(argv, profiled=False):
    src = os.path.dirname(os.path.dirname(hopftwist.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
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


def test_malformed_theta_loads_no_suite_module():
    code, mods, _ = _child(THETA)
    assert code == 2
    assert mods == BASE | THETA_LOADS


def test_importing_the_cli_loads_four_modules():
    src = os.path.dirname(os.path.dirname(hopftwist.__file__))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, hopftwist.cli; "
            "print(json.dumps([m for m in sys.modules if m.startswith('hopftwist.')]))",
        ],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    mods = {m[len("hopftwist."):] for m in json.loads(proc.stdout)}
    assert mods == {"cli"} | BASE


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

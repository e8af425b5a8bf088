"""Each `verify <suite>` process loads only the modules its suite runs.

Without bytecode on disk every module a process imports is compiled from
source first, so an import a suite never calls costs start-up time.  And
every module but the CLI's own is loaded by some suite, so none is left
that nothing the verifier runs reaches.
"""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import hopftwist

# what `python -m hopftwist.cli` runs, with the loaded modules printed last
_CHILD = """
import json, runpy, sys
sys.argv = ["hopftwist"] + sys.argv[1:]
try:
    runpy.run_module("hopftwist.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
mods = sorted(m for m in sys.modules if m.startswith("hopftwist."))
print(json.dumps([code, mods]))
"""

# every verify process: the package, the CLI's suite table and what
# run_suite checks its flags with
BASE = {"errors", "grammar", "linalg", "reporting", "scalars", "suites"}

LOADS = {
    "hopf-axioms": {"constructors", "multilinear"},
    "group-cohomology": {"constructors", "group_cohomology", "multilinear"},
    "octonions": {"constructors", "group_cohomology", "multilinear"},
    "pbw-gcl": {"hopf_cochain", "multilinear", "pbw"},
    "moyal": {"hopf_cochain", "multilinear", "pbw"},
    "graded-galois": {"constructors", "graded", "multilinear"},
    "sharp-map": {"constructors", "graded", "multilinear"},
    "heis-torus": {"heis_torus"},
    "hopf-cochain": {"constructors", "group_cohomology", "hopf_cochain", "multilinear", "pbw"},
}

# the CLI, and what describe and octonion-table load
NOT_SUITE_MODULES = {"cli", "io_json"}


def _loaded(argv):
    src = os.path.dirname(os.path.dirname(hopftwist.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD] + argv,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, mods = json.loads(proc.stdout.splitlines()[-1])
    return code, {m[len("hopftwist."):] for m in mods}


@pytest.mark.parametrize("suite", sorted(LOADS))
def test_verify_loads_only_what_its_suite_runs(suite):
    code, mods = _loaded(["verify", suite, "--seed", "5"])
    assert code == 0
    assert mods == BASE | LOADS[suite]


def test_malformed_theta_loads_no_suite_module():
    code, mods = _loaded(["verify", "heis-torus", "--theta", "1+h", "--seed", "5"])
    assert code == 2
    assert mods == BASE


def test_every_module_is_loaded_by_some_suite():
    # a module no suite loads is one nothing the verifier runs reaches
    modules = {m.name for m in pkgutil.iter_modules(hopftwist.__path__)}
    assert modules - NOT_SUITE_MODULES - BASE - set().union(*LOADS.values()) == set()

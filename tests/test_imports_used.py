"""Every name a module of the package imports is used in that module.

Each src/hopftwist/*.py is parsed with ast: a name bound by an import
statement must be read somewhere in the module, as a bare name or the
base of an attribute, or be listed in __all__.  A helper that moves or is
deleted leaves no stale import behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hopftwist"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """{bound name: line} of every import statement in tree."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    """The names read in tree, and the strings of a module-level __all__."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    """Sorted (line, name) of the imported names source never uses."""
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


def test_every_module_is_checked():
    assert {"scalars.py", "multilinear.py", "pbw.py", "heis_torus.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from math import gcd, lcm\n"
        "import os.path\n"
        "from .scalars import _row as row, accumulate\n"
        "__all__ = ['accumulate']\n"
        "def f(a):\n"
        "    return lcm(a, 2) + row\n"
    )
    assert unused_imports(source) == [(1, "gcd"), (2, "os")]

"""Every private module-level def and class of the package is read.

Each src/hopftwist/*.py is parsed with ast: a module-level def or class
whose name starts with one underscore must be read somewhere in the
package, as a bare name or as an attribute, outside its own definition.
A helper that a change stops calling is deleted with it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopftwist"
MODULES = sorted(SRC.glob("*.py"))


def private_definitions(tree):
    """{name: line} of the module-level defs and classes whose name is
    private (one leading underscore, not a dunder)."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def reads(tree):
    """The names read in tree as bare names or attributes, leaving out a
    module-level definition's reads of its own name (recursion)."""
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                out.add(name)
    return out


def unread_private_names(sources):
    """Sorted (module, line, name) of the private module-level defs and
    classes of {module: source} that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(reads, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    )


def test_every_private_definition_is_read():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unread_private_names(sources) == []


def test_an_unread_private_definition_is_found():
    sources = {
        "a.py": (
            "def _left(k):\n"
            "    return _left(k - 1) if k else k\n"
            "def _used(x):\n"
            "    return x\n"
            "class _Base:\n"
            "    pass\n"
            "def __dunder__():\n"
            "    pass\n"
            "def public():\n"
            "    return _used(1)\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import _Base\n"
            "def _coerce(v):\n"
            "    return v\n"
            "class C(a._Base):\n"
            "    pass\n"
        ),
    }
    assert unread_private_names(sources) == [("a.py", 1, "_left"), ("b.py", 3, "_coerce")]

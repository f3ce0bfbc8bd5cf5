"""Source hygiene: every name a `pilotwave` module imports is used there,
and every private module- or class-level name is used in the package.

No linter is a dependency, so this walks each module's syntax tree.
`__init__.py` is skipped by the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pilotwave"


def unused_imports(source):
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_are_found():
    assert unused_imports("import os.path\nfrom a import b as c, d\n"
                          "import numpy as np\nnp.zeros(c)\n") == ["d", "os"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree):
    """The `_name`s (not dunders) a module body or a class body binds."""
    names = set()
    bodies = [tree.body] + [n.body for n in ast.walk(tree)
                            if isinstance(n, ast.ClassDef)]
    for node in (node for body in bodies for node in body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def dead_private_definitions(sources):
    """Private definitions in `sources` that none of them reads or imports."""
    trees = [ast.parse(s) for s in sources]
    defined, read = set(), set()
    for tree in trees:
        defined |= private_definitions(tree)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read |= {a.name for a in n.names}
    return sorted(defined - read)


def test_dead_private_definitions_are_found():
    assert dead_private_definitions([
        "_A = 1\n_B: int = 2\n_C = 3\ndef _f():\n    return _A\n"
        "class K:\n    _x = 0\n    __slots__ = ()\n"
        "    def _g(self):\n        return self._x\n"
        "    def _h(self):\n        self._g = 1\n",
        "from m import _f\n_C\n"]) == ["_B", "_g", "_h"]


def test_no_dead_private_definitions():
    assert dead_private_definitions(
        p.read_text() for p in sorted(SRC.glob("*.py"))) == []

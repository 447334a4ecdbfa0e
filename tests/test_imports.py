"""Every name a module of the package imports is used in that module.

Deleting a code path tends to leave its imports behind.  A name counts
as used when the module reads it anywhere or lists it in ``__all__``;
``from __future__`` imports are compiler directives and are skipped.
"""

import ast
from pathlib import Path

import veronese

PACKAGE = Path(veronese.__file__).resolve().parent


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the source never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        imported += [(node.lineno, name) for name in names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_guard_sees_an_unused_import():
    src = "from math import gcd, inf\nimport os\nprint(gcd(4, 6))\n"
    assert unused_imports(src) == [(1, "inf"), (2, "os")]
    src = "from __future__ import annotations\nfrom os import sep\n__all__ = ['sep']\n"
    assert unused_imports(src) == []


def test_package_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {
        path.name: found
        for path in modules
        if (found := unused_imports(path.read_text()))
    }
    assert not unused

"""Every name a module of the package imports is used in that module,
every name a module defines is used somewhere in the package, and every
field of a package record is read somewhere.

Deleting a code path tends to leave its imports and helpers behind.  An
import counts as used when the module reads it anywhere or lists it in
``__all__``; ``from __future__`` imports are compiler directives and
are skipped.  A module-level def, class or assignment counts as used
when some module of the package reads, imports or exports its name
outside the definition itself, and so does a method of a module-level
class when its name is read outside the method; dunder names are
module and object protocol.  A record field counts as read when the
package or a benchmark module reads an attribute of its name; see
``unread_fields``.
"""

import ast
import importlib
from pathlib import Path

import veronese

PACKAGE = Path(veronese.__file__).resolve().parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


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


def typing_isinstance(source: str) -> list:
    """(line, name) of each isinstance test against a name from typing.

    The typing aliases (``typing.Mapping`` and the like) answer
    isinstance through a slow generic hook; ``dict`` or the
    ``collections.abc`` class answers the same question directly.
    """
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "typing"}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1]
        for c in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            if isinstance(c, ast.Name) and c.id in names:
                found.append((node.lineno, c.id))
            elif (isinstance(c, ast.Attribute) and isinstance(c.value, ast.Name)
                  and c.value.id in modules):
                found.append((node.lineno, f"{c.value.id}.{c.attr}"))
    return found


def test_guard_sees_isinstance_against_typing():
    src = (
        "import typing as t\n"
        "from typing import Mapping, Sequence\n"
        "from collections.abc import Iterable\n"
        "def f(x: Sequence):\n"
        "    return isinstance(x, Mapping), isinstance(x, (dict, t.Sequence))\n"
        "def g(x):\n"
        "    return isinstance(x, (dict, Iterable))\n"
    )
    assert typing_isinstance(src) == [(5, "Mapping"), (5, "t.Sequence")]


def test_package_has_no_isinstance_against_typing():
    found = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := typing_isinstance(path.read_text()))
    }
    assert not found


# defined for callers outside the package: name -> why it stays
DEAD_ALLOWED = {
    "polys.frobenius_power": "perfbench/spans.py wraps it to count Frobenius work",
    "gluing.semigroup_member": "the tuple search for callers with other generating "
                               "sets; no comb searches, and perfbench/spans.py wraps it",
    "polys.Poly.map_field": "perfbench/workloads.py and the tests map integer "
                            "generators into F_r; no check does",
}


def _defined(tree: ast.Module) -> list:
    """(name, statement) for each module-level def, class or assignment,
    and (Class.method, def) for each method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{sub.name}", sub) for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not sub.name.startswith("__")
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out += [
                    (n.id, node) for n in ast.walk(target)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
    return [(name, node) for name, node in out if not name.startswith("__")]


def _referenced(node: ast.AST) -> set:
    """Names a subtree reads or imports from another module."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
    return names


def _statements(tree: ast.Module) -> list:
    """(node, class) for each module-level statement, with a class split
    into its body statements, bases, keywords and decorators; class is
    the ClassDef the node came from, or None."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            parts = stmt.body + stmt.bases + stmt.keywords + stmt.decorator_list
            out += [(part, stmt) for part in parts]
        else:
            out.append((stmt, None))
    return out


def dead_definitions(sources: dict) -> list:
    """module.name of each module-level definition in sources (module ->
    source text), and module.Class.method of each non-dunder method of a
    module-level class, that no module references outside the definition
    itself.  A method counts as referenced by any attribute of its name."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    exported = set().union(*map(_exported, trees.values()))
    # statement by statement, so that a definition's own body (a
    # recursive call, say) does not keep it alive
    uses = [
        (stmt, cls, _referenced(stmt))
        for tree in trees.values() for stmt, cls in _statements(tree)
    ]
    return [
        f"{mod}.{name}"
        for mod, tree in trees.items()
        for name, node in _defined(tree)
        if name not in exported
        and not any(
            name.rpartition(".")[2] in names
            for stmt, cls, names in uses if node is not stmt and node is not cls
        )
    ]


def test_guard_sees_a_dead_definition():
    sources = {
        "a": "LIMIT = 3\ndef f(x):\n    return f(x - 1) if x else LIMIT\n"
             "def g():\n    pass\nclass K:\n    pass\n",
        "b": "from .a import g\nimport a\nprint(a.K, g)\n",
    }
    assert dead_definitions(sources) == ["a.f"]
    sources["b"] += "__all__ = ['f']\n"
    assert dead_definitions(sources) == []
    # a method is alive when another method or module reads its name;
    # its own body and dunder methods do not count
    sources["c"] = (
        "class C:\n"
        "    def __init__(self):\n        self.m()\n"
        "    def m(self):\n        return self.n()\n"
        "    def n(self):\n        return 1\n"
        "    def own(self):\n        return self.own()\n"
        "    def gone(self):\n        pass\n"
        "class D(C):\n    pass\n"
        "print(D)\n"
    )
    assert dead_definitions(sources) == ["c.C.own", "c.C.gone"]


def test_package_has_no_dead_definitions():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    dead = dead_definitions(sources)
    assert sorted(dead) == sorted(DEAD_ALLOWED)


RECORD_DECORATORS = ("dataclass", "record")


def _is_record(cls: ast.ClassDef) -> bool:
    """Decorated with record, dataclass or dataclass(...), by name or
    attribute."""
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        names = (getattr(target, "id", None), getattr(target, "attr", None))
        if any(name in RECORD_DECORATORS for name in names):
            return True
    return False


def unread_fields(sources: dict, readers: list) -> list:
    """module.Class.field of each annotated field of a module-level
    record or dataclass in sources (module -> source text) that no source in
    readers reads as an attribute.

    Fields are matched by attribute name only, whatever the object: a
    read of ``x.rank`` anywhere keeps every field called ``rank`` alive.
    So the guard finds fields nobody reads under any name, not every
    field its own class's users skip.
    """
    read = {
        node.attr
        for src in readers for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{mod}.{cls.name}.{stmt.target.id}"
        for mod, src in sources.items()
        for cls in ast.parse(src).body
        if isinstance(cls, ast.ClassDef) and _is_record(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]


def test_guard_sees_an_unread_field():
    sources = {
        "a": "from dataclasses import dataclass\n"
             "@dataclass(frozen=True)\n"
             "class R:\n    kept: int\n    lost: int\n    stored: int\n"
             "class Plain:\n    lost: int\n"
             "def f(r):\n    r.stored = 1\n    return r.kept\n",
        "b": "import dataclasses\n@dataclasses.dataclass\nclass S:\n    gone: int\n",
        "c": "from .records import record\n@record\nclass V:\n    idle: int\n"
             "from . import records\n@records.record\nclass W:\n    spare: int\n",
    }
    # a store is not a read, and a plain class has no fields
    assert unread_fields(sources, list(sources.values())) == [
        "a.R.lost", "a.R.stored", "b.S.gone", "c.V.idle", "c.W.spare"
    ]
    # any object's attribute of the name counts
    reads = "print(w.kept, x.gone, y.lost, z.stored, v.idle, u.spare)"
    assert unread_fields(sources, [reads]) == []


def test_package_records_have_no_unread_fields():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert bench
    assert unread_fields(sources, list(sources.values()) + bench) == []


def test_guard_sees_every_package_record():
    # the classes _is_record finds in the source are those that
    # records.record built at import, so none escapes unread_fields
    modules = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    found = {
        f"{mod}.{cls.name}"
        for mod in modules
        for cls in ast.parse((PACKAGE / f"{mod}.py").read_text()).body
        if isinstance(cls, ast.ClassDef) and _is_record(cls)
    }
    built = {
        f"{mod}.{name}"
        for mod in modules
        for name, obj in vars(importlib.import_module(f"veronese.{mod}")).items()
        if isinstance(obj, type) and obj.__module__ == f"veronese.{mod}"
        and getattr(obj.__init__, "__module__", None) == "veronese.records"
    }
    assert found == built
    assert len(found) == 17

"""The benchmark in perfbench/ wraps package functions by name (its SPANNED
table) and calls others from its workloads, and does not run as part of
this suite, so a name it uses could vanish without any test here
failing.  This reads perfbench/spans.py and perfbench/workloads.py
without importing them and checks every name."""

import ast
from importlib import import_module
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = BENCH / "spans.py"
WORKLOADS = BENCH / "workloads.py"


def _spanned() -> tuple:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANNED table in {SPANS}")


def test_spanned_functions_exist():
    spanned = _spanned()
    assert spanned
    missing = [
        f"veronese.{mod}.{fn}"
        for mod, fn in spanned
        if not callable(getattr(import_module(f"veronese.{mod}"), fn, None))
    ]
    assert not missing


def _workload_names() -> set:
    """(module, name) for every ``module.name`` that workloads.py reads
    from a module it imports with ``from veronese import ...``."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "veronese"
        for alias in node.names
    }
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_workload_names_exist():
    names = _workload_names()
    assert names
    missing = [
        f"veronese.{mod}.{name}"
        for mod, name in sorted(names)
        if not hasattr(import_module(f"veronese.{mod}"), name)
    ]
    assert not missing

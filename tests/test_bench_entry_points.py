"""The benchmark in perfbench/ wraps package functions by name (its SPANNED
table) and does not run as part of this suite, so a function it names
could vanish without any test here failing.  This reads the table from
perfbench/spans.py without importing it and checks every name."""

import ast
from importlib import import_module
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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

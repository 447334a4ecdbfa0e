"""The benchmark in perfbench/ wraps package functions by name (its SPANNED
table) and calls others from its workloads, and does not run as part of
this suite, so a name it uses could vanish without any test here
failing.  This reads perfbench/spans.py and perfbench/workloads.py
without importing them and checks every name, then loads spans.py (it
imports only the standard library) and feeds each of its counters a
real return value, so an attribute a counter reads cannot vanish
either."""

import ast
import importlib.util
from collections import Counter
from importlib import import_module
from pathlib import Path

from conftest import make_params
from veronese import (
    PrimeField,
    TypeStarBinomial,
    build_certificate,
    buchberger,
    point_survey,
    reduce,
    rewrite,
    verify_char_p,
)
from veronese.combinatorics import exponent_vectors
from veronese.gluing import SemigroupGens, check_p_gluing, semigroup_member
from veronese.lattice import IntMatrix, smith_normal_form
from veronese.polys import frobenius_power
from veronese.toric import generators_over

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


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counter_cases() -> dict:
    """A small real call for each counter: name -> (args, return value,
    the counts that call must leave)."""
    params = make_params(3, 2, 1)
    gens = generators_over(params, PrimeField(5))
    gb = buchberger(gens)
    cert = build_certificate(params)
    g2 = generators_over(params, PrimeField(2))[0]
    tsb = TypeStarBinomial(params, ((1, 1), (2, 2)), (1, 3, 2, 4))
    # the first peel of the (3,2,1) comb: beta = e_1 + e_2, d = 1, s = 1
    beta = (1, 1, 0)
    snf_in = IntMatrix([[2, 4, 4], [-6, 6, 12]])
    calls = {
        "groebner.buchberger": ((gens,), buchberger),
        "groebner.reduce": ((gens[0], gb), reduce),
        "polys.frobenius_power": ((g2, 2, 1), frobenius_power),
        "toric.rewrite": ((tsb,), rewrite),
        "sci.verify_char_p": ((cert,), verify_char_p),
        "sci.point_survey": ((cert, 3), point_survey),
        "gluing.check_p_gluing": ((params, beta), check_p_gluing),
        "lattice.smith_normal_form": ((snf_in,), smith_normal_form),
    }
    want = {
        "groebner.buchberger": {"groebner.buchberger.pairs": 0,
                                "groebner.buchberger.basis_len": 6},
        "groebner.reduce": {"groebner.reduce.zeros": 1},
        "polys.frobenius_power": {"polys.frobenius_power.out_terms": 2},
        "toric.rewrite": {"toric.rewrite.steps": 1},
        "sci.verify_char_p": {"sci.verify_char_p.generators": 6},
        "sci.point_survey": {"sci.point_survey.points": 3**6,
                             "sci.point_survey.hits": 35},
        "gluing.check_p_gluing": {"gluing.check_p_gluing.found": 1},
        "lattice.smith_normal_form": {"lattice.smith_normal_form.entries": 6},
    }
    return {name: (args, fn(*args), want[name]) for name, (args, fn) in calls.items()}


def test_counters_read_real_return_values():
    counters = _spans_module().COUNTERS
    cases = _counter_cases()
    assert set(cases) == set(counters)
    for name, (args, out, want) in cases.items():
        c = Counter()
        counters[name](args, out, c)
        assert dict(c) == want, name


def test_semigroup_member_span_runs_the_tuple_search():
    # spans.py wraps semigroup_member, which no counter reads; a real
    # call on T(3,2,1) still runs: 2*(1,1,0) is (2,0,0) + (0,2,0)
    gens = SemigroupGens.of(exponent_vectors(make_params(3, 2, 1)))
    assert semigroup_member(gens, (2, 2, 0)) == (1, 0, 0, 1, 0, 0)

"""The package's frozen records: built by positional or keyword
arguments, equal and hashed by their fields, closed to assignment, and
printed as ``Name(field=value, ...)``; and a cold import of the CLI
that loads none of the dataclasses or typing machinery."""

import os
import subprocess
import sys

import pytest

from conftest import make_params
from veronese import (
    CyclicAction,
    PrimeField,
    SemigroupGens,
    TypeStarBinomial,
    VeroneseParams,
    build_certificate,
    buchberger,
    cohomology_orders,
    completely_p_glued,
    fiber_check,
    jacobian_rank,
    point_survey,
    rewrite,
    verify_char_p,
)
from veronese.checks import CheckResult
from veronese.lattice import IntMatrix, smith_normal_form
from veronese.toric import generators_over

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _samples():
    """One instance of each of the package's 17 record classes."""
    params = make_params(3, 2, 1)
    cert = build_certificate(params)
    action = CyclicAction(4, 3)
    comb = completely_p_glued(params)
    # one step, x11*x22 - x12^2 at positions ((0, 3), (1, 1)), times the
    # spectator x33 at position 5
    tsb = TypeStarBinomial(params, ((1, 1), (2, 2), (3, 3)), (1, 3, 2, 4, 5, 6))
    certificate = rewrite(tsb)
    return [
        params,
        action,
        cohomology_orders(action),
        jacobian_rank(params, (1,) * 6, 5),
        fiber_check(params, 5, (1, 2, 3)),
        comb.gens,
        comb.peels[0][1],
        comb,
        buchberger(generators_over(params, PrimeField(5))),
        smith_normal_form(IntMatrix(((2, 4), (6, 8)))),
        cert,
        verify_char_p(cert),
        point_survey(cert, 3),
        tsb,
        certificate.steps[0],
        certificate,
        CheckResult("cardinality", True, "ok", 0.01, 1.0),
    ]


SAMPLES = _samples()


def _fields(obj) -> tuple:
    return tuple(type(obj).__annotations__)


def test_samples_cover_every_record_class():
    assert len({type(obj) for obj in SAMPLES}) == len(SAMPLES) == 17


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda obj: type(obj).__name__)
def test_record_is_a_frozen_value(obj):
    cls, names = type(obj), _fields(obj)
    values = tuple(getattr(obj, name) for name in names)
    by_keyword = cls(**dict(zip(names, values)))
    by_position = cls(*values)
    # equal and hashed by fields, not identity; never equal to the tuple
    assert by_keyword is not obj
    assert by_keyword == obj == by_position
    assert hash(by_keyword) == hash(obj) == hash(values)
    assert obj != values and not obj != by_position
    with pytest.raises(AttributeError):
        setattr(obj, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(obj, names[-1])
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, names[0]) is values[0]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(obj) == f"{cls.__name__}({fields})"


def test_record_repr_equality_and_arguments():
    params = VeroneseParams(3, 2, 1)
    assert repr(params) == "VeroneseParams(n=3, p=2, h=1)"
    assert params == VeroneseParams(h=1, n=3, p=2) == VeroneseParams(3, p=2, h=1)
    assert params != VeroneseParams(3, 2, 2)
    assert len({params, VeroneseParams(3, 2, 1), VeroneseParams(4, 2, 1)}) == 2
    step = SAMPLES[-3]
    assert repr(step) == "RewriteStep(quadratic=((0, 3), (1, 1)), cofactor=((5, 1),), sign=1)"
    for args, kwargs in [((3, 2), {}), ((3, 2, 1, 1), {}), ((3, 2, 1), {"n": 3}),
                         ((3, 2), {"q": 2})]:
        with pytest.raises(TypeError):
            VeroneseParams(*args, **kwargs)


def test_cold_cli_import_skips_dataclasses_and_typing():
    # -S keeps site (and what it preloads) out, so the package's own
    # imports are all that is measured
    heavy = ("dataclasses", "inspect", "ast", "dis", "typing")
    code = f"import sys, veronese.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

"""Exact commutative algebra on affine cones of degree-q Veronese
varieties: binomial generators, rewriting certificates, semigroup
gluing, set-theoretic complete intersection verification over prime
fields, Jacobian and covering-fiber checks, and cyclic group
cohomology.

The package exports the pipeline entry points; everything else is
imported from its submodule."""

from .cohomology import CyclicAction, cohomology_orders
from .combinatorics import VeroneseParams, exponent_vectors, index_tuples, parametrize
from .fields import PrimeField
from .geometry import fiber_check, jacobian_rank
from .gluing import SemigroupGens, completely_p_glued
from .groebner import buchberger, reduce
from .sci import build_certificate, full_ideal_point_survey, point_survey, verify_char_p
from .toric import TypeStarBinomial, quadratic_generators, rewrite

__version__ = "0.1.0"

__all__ = [
    # enumeration
    "VeroneseParams",
    "index_tuples",
    "exponent_vectors",
    "parametrize",
    "PrimeField",
    # generators, rewriting, Groebner membership
    "quadratic_generators",
    "TypeStarBinomial",
    "rewrite",
    "buchberger",
    "reduce",
    # gluing, certificates, point surveys
    "SemigroupGens",
    "completely_p_glued",
    "build_certificate",
    "verify_char_p",
    "point_survey",
    "full_ideal_point_survey",
    # Jacobians, fibres, cohomology
    "jacobian_rank",
    "fiber_check",
    "CyclicAction",
    "cohomology_orders",
]

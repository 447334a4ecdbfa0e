"""Degree-q monomial combinatorics for the q-fold embedding of affine n-space.

The coordinate set T consists of all exponent vectors of degree q = p^h in
n variables; each corresponds to a weakly increasing q-tuple over {1..n}
(the multiplicity of j in the tuple is the j-th exponent).  Variables of
the ambient polynomial ring are named by these index tuples, listed in
ascending lexicographic order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .fields import ZZ, PrimeField, is_prime
from .polys import PolyRing

# q = p^h past which the exponent sets outgrow every check
MAX_Q = 16
# |T| past which VeroneseParams refuses a set, to bound what every layer
# builds from T: fewer star quadrics, as position pairs, than the
# |T|(|T| + 1)/2 degree-2 monomials, and the |T|-entry tuples of Polys
MAX_CARDINALITY = 10_000

IndexTuple = tuple
ExponentVector = tuple


@dataclass(frozen=True)
class VeroneseParams:
    """Ambient dimension n and prime power q = p^h."""

    n: int
    p: int
    h: int

    def __post_init__(self):
        for name in ("n", "p", "h"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        # p^h >= 2^h > MAX_Q once h reaches the cap's bit length: a huge
        # h is refused without the power, a huge p before the prime test
        if self.h >= MAX_Q.bit_length() or self.p**self.h > MAX_Q:
            raise ValueError(f"q = {self.p}^{self.h} exceeds the cap {MAX_Q}")
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.cardinality() > MAX_CARDINALITY:
            raise ValueError(
                f"|T| = C(n+q-1, q) = {self.cardinality()} exceeds the cap "
                f"{MAX_CARDINALITY}"
            )
        if self.n < 3:
            warnings.warn(
                f"n={self.n}: below n=3 the variety is a point or a line "
                "and most checks degenerate",
                # past __post_init__ and the dataclass __init__ to the caller
                stacklevel=3,
            )

    @property
    def q(self) -> int:
        return self.p**self.h

    def cardinality(self) -> int:
        """|T| = C(n+q-1, q)."""
        return comb(self.n + self.q - 1, self.q)


def exponent_of(t: IndexTuple, n: int) -> ExponentVector:
    """Multiplicity vector of a weakly increasing tuple over {1..n}."""
    if not t:
        raise ValueError("empty index tuple")
    if any((not isinstance(i, int)) or i < 1 or i > n for i in t):
        raise ValueError(f"index tuple {t!r} has entries outside 1..{n}")
    if any(t[i] > t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"index tuple {t!r} is not weakly increasing")
    a = [0] * n
    for i in t:
        a[i - 1] += 1
    return tuple(a)


@lru_cache(maxsize=None)
def index_tuples(params: VeroneseParams) -> tuple:
    """All weakly increasing q-tuples over {1..n}, ascending lexicographic."""
    return tuple(
        combinations_with_replacement(range(1, params.n + 1), params.q)
    )


@lru_cache(maxsize=None)
def exponent_vectors(params: VeroneseParams) -> tuple:
    """Degree-q exponent vectors, parallel to index_tuples."""
    return tuple(exponent_of(t, params.n) for t in index_tuples(params))


def pure_tuple(params: VeroneseParams, j: int) -> IndexTuple:
    """The tuple (j, ..., j) naming the coordinate that sees only u_j."""
    if j < 1 or j > params.n:
        raise ValueError(f"index {j} outside 1..{params.n}")
    return (j,) * params.q


@lru_cache(maxsize=None)
def polynomial_ring(params: VeroneseParams, field) -> PolyRing:
    """Ambient ring with one variable per element of T."""
    return PolyRing(field, index_tuples(params))


def integer_ring(params: VeroneseParams) -> PolyRing:
    return polynomial_ring(params, ZZ)


def parametrize(params: VeroneseParams, u, field: PrimeField) -> tuple:
    """Point of the variety with coordinates ordered like index_tuples."""
    if len(u) != params.n:
        raise ValueError(f"need {params.n} coordinates, got {len(u)}")
    r = field.r
    out = []
    for a in exponent_vectors(params):
        w = 1
        for x, e in zip(u, a):
            if e:
                w = w * pow(x, e, r) % r
        out.append(w)
    return tuple(out)

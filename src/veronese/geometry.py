"""Smoothness and fiber checks over prime fields.

The Jacobian of the quadratic generators has rank 0 at the origin and
full codimension rank elsewhere on the variety; the proof's square
submatrix (one row per non-minimal coordinate, built from products with
the distinguished pure coordinate) is lower triangular by construction,
and the report gives its diagonal.  Fibers of the parametrization over
fields containing the q-th roots of unity are orbits of the scalar
root-of-unity action.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .combinatorics import (
    VeroneseParams,
    index_tuples,
    parametrize,
    pure_tuple,
)
from .fields import PrimeField
from .records import record
from .toric import quadric_pairs


class RootOfUnityError(ValueError):
    """The field does not contain q distinct q-th roots of unity."""


def matrix_rank_mod(rows: Iterable[dict], r: int) -> int:
    """Row-echelon rank mod a prime r of sparse integer rows {column: value}.

    Rows are eliminated one at a time against the monic pivot rows kept
    so far, each under its leading column: a row left nonzero becomes a
    new pivot row.  Jacobian rows have at most four nonzero entries, so
    this touches only those.
    """
    pivots: dict = {}
    for row in rows:
        v = {j: x % r for j, x in row.items() if x % r}
        while v:
            col = min(v)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(v[col], -1, r)
                pivots[col] = {j: x * inv % r for j, x in v.items()}
                break
            c = v[col]
            for j, x in piv.items():
                s = (v.get(j, 0) - c * x) % r
                if s:
                    v[j] = s
                else:
                    del v[j]
    return len(pivots)


@record
class JacobianReport:
    params: VeroneseParams
    r: int
    point: tuple
    rank: int
    # True, with the triangular submatrix's diagonal, when some pure
    # coordinate is nonzero at the point; None for both otherwise
    triangular_ok: bool | None
    diagonal_value: int | None
    permutation: tuple


def jacobian_rank(params: VeroneseParams, w: Sequence[int], r: int) -> JacobianReport:
    """Rank at w over F_r of the Jacobian of the star quadrics, plus the
    diagonal of the proof's triangular submatrix.

    The generators are built here, not passed in: the triangular
    diagonal below is a theorem about that set only.

    Pick j with w[(j..j)] nonzero and swap u_1 with u_j (``permutation``).
    For each non-minimal t, the row of F_t = x_(1..1) x_t -
    x_(1..1 t_q) x_(1 t_1..t_(q-1)), restricted to the columns of the
    non-minimal tuples, has x_(1..1) in column t; its only other entry is
    in column (1 t_1..t_(q-1)), which comes before t, and x_(1..1 t_q)
    and x_(1..1) are not columns.  So the submatrix is lower triangular
    with w[(j..j)] on its diagonal at every point: a nonzero pure
    coordinate proves rank >= |T| - n.  The report gives that diagonal
    (``triangular_ok`` True) without rebuilding the matrix, and None for
    both when every pure coordinate is zero.
    """
    field = PrimeField(r)
    tuples = index_tuples(params)
    if len(w) != len(tuples):
        raise ValueError(f"point needs {len(tuples)} coordinates")
    w = tuple(field.normalize(x) for x in w)

    rank = matrix_rank_mod((_jacobian_row(g, w) for g in quadric_pairs(params)), r)

    perm = tuple(range(1, params.n + 1))
    diagonal = {
        jj: d for jj in perm if (d := w[tuples.index(pure_tuple(params, jj))])
    }
    if not diagonal:
        return JacobianReport(params, r, w, rank, None, None, perm)
    support = {
        jj: sum(1 for t, x in zip(tuples, w) if x and jj in t) for jj in diagonal
    }
    j = max(diagonal, key=lambda jj: (support[jj], -jj))
    if j != 1:
        perm = tuple({1: j, j: 1}.get(i, i) for i in perm)
    return JacobianReport(params, r, w, rank, True, diagonal[j], perm)


def _jacobian_row(pair, w: tuple) -> dict:
    """Gradient at w of x_i*x_j - x_k*x_l, pair ((i, j), (k, l)), as
    {position: value}: x_i*x_j adds w_j at i and w_i at j (2*w_i if i = j)."""
    row: dict = {}
    for (i, j), c in zip(pair, (1, -1)):
        row[i] = row.get(i, 0) + c * w[j]
        row[j] = row.get(j, 0) + c * w[i]
    return row


@record
class FiberReport:
    params: VeroneseParams
    r: int
    u: tuple
    fiber: tuple
    orbit: tuple
    roots_of_unity: tuple
    equal: bool


def fiber_check(params: VeroneseParams, r: int, u: Sequence[int]) -> FiberReport:
    """Compare the fiber through u with its root-of-unity orbit."""
    field = PrimeField(r)
    q = params.q
    if (r - 1) % q:
        raise RootOfUnityError(
            f"root-of-unity deficiency: q={q} does not divide r-1={r - 1}"
        )
    u = tuple(field.normalize(x) for x in u)
    if len(u) != params.n:
        raise ValueError(f"need {params.n} coordinates")
    if not any(u):
        raise ValueError("fiber comparison needs a nonzero point")
    w = parametrize(params, u, field)
    # mu_q is cyclic of order q = p^h, generated by the first
    # z = x^((r-1)/q) with z^(q/p) != 1
    for x in range(2, r):
        z = pow(x, (r - 1) // q, r)
        if pow(z, q // params.p, r) != 1:
            break
    mu = tuple(sorted(pow(z, k, r) for k in range(q)))
    # solve from the first nonzero u_j0, as sci._Image does: a fibre
    # point v has v_j0^q = u_j0^q, so v_j0 = g*u_j0 for a g in mu_q, and
    # coordinate (q-1)e_j0 + e_j of w is v_j0^(q-1)*v_j; each g leaves
    # one candidate, kept if it re-evaluates to w
    j0 = next(j for j, x in enumerate(u, 1) if x)
    tuples = index_tuples(params)
    row = [tuples.index(tuple(sorted((j0,) * (q - 1) + (j,)))) for j in range(1, params.n + 1)]
    invs = (pow(g * u[j0 - 1], 1 - q, r) for g in mu)
    candidates = (tuple(w[t] * inv % r for t in row) for inv in invs)
    fiber = tuple(sorted(v for v in candidates if parametrize(params, v, field) == w))
    orbit = tuple(sorted({tuple(g * x % r for x in u) for g in mu}))
    return FiberReport(params, r, u, fiber, orbit, mu, set(fiber) == set(orbit))

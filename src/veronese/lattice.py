"""Exact integer matrix algebra: Smith normal form and lattice bases.

Everything is plain Python ints, no floating point anywhere.  Lattices
are given by integer matrices whose columns generate them.  An integer
echelon basis (Cohen, GTM 138, section 2.4) gives the rank of a
generating set without a Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(tuple(x for x in row) for row in rows)
        if not rs or not rs[0]:
            raise ValueError("matrix must have at least one row and column")
        w = len(rs[0])
        for row in rs:
            if len(row) != w:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, int):
                    raise ValueError(f"non-integer entry {x!r}")
        self.rows = rs

    @classmethod
    def from_cols(cls, cols: Iterable[Iterable[int]]) -> "IntMatrix":
        cs = [tuple(c) for c in cols]
        if any(len(c) != len(cs[0]) for c in cs):
            raise ValueError("ragged columns")
        return cls(zip(*cs))

    @property
    def shape(self) -> tuple:
        return (len(self.rows), len(self.rows[0]))

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def times_vec(self, v: Sequence[int]) -> tuple:
        if len(v) != self.shape[1]:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and other.rows == self.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "IntMatrix(" + ", ".join(str(list(r)) for r in self.rows) + ")"


@dataclass(frozen=True)
class SnfResult:
    """u * a * v = diag(d) with u, v unimodular; d has a divisibility chain.

    u_inv and v_inv are the exact inverses, accumulated during reduction;
    columns of u_inv scaled by d give a basis of the column lattice.
    """

    d: tuple
    u: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d if x)


def smith_normal_form(a: IntMatrix) -> SnfResult:
    m, n = a.shape
    w = [list(row) for row in a.rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    ui = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    vi = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        w[i], w[j] = w[j], w[i]
        u[i], u[j] = u[j], u[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in w:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vi[i], vi[j] = vi[j], vi[i]

    def row_add(i, j, c):
        # row i += c * row j
        w[i] = [x + c * y for x, y in zip(w[i], w[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in ui:
            r[j] -= c * r[i]

    def col_add(j, i, c):
        # col j += c * col i
        for r in w:
            r[j] += c * r[i]
        for r in v:
            r[j] += c * r[i]
        vi[i] = [x - c * y for x, y in zip(vi[i], vi[j])]

    def row_negate(i):
        w[i] = [-x for x in w[i]]
        u[i] = [-x for x in u[i]]
        for r in ui:
            r[i] = -r[i]

    t = 0
    limit = min(m, n)
    while t < limit:
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(w[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        # clear row and column t, re-pivoting on any remainder
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if w[i][t]:
                    qd = w[i][t] // w[t][t]
                    row_add(i, t, -qd)
                    if w[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if w[t][j]:
                    qd = w[t][j] // w[t][t]
                    col_add(j, t, -qd)
                    if w[t][j]:
                        col_swap(t, j)
                        dirty = True
        # pivot must divide the rest of the block for the chain property
        if w[t][t] < 0:
            row_negate(t)
        piv = w[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if w[i][j] % piv:
                    row_add(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1

    d = tuple(w[i][i] for i in range(limit))
    return SnfResult(d, IntMatrix(u), IntMatrix(v), IntMatrix(ui), IntMatrix(vi))


def column_lattice_basis(a: IntMatrix) -> list:
    """Basis vectors of the lattice spanned by the columns of a."""
    snf = smith_normal_form(a)
    return [
        tuple(x * snf.d[i] for x in snf.u_inv.col(i))
        for i in range(len(snf.d))
        if snf.d[i]
    ]


def lattice_intersection(a: IntMatrix, b: IntMatrix) -> list:
    """Basis of (column lattice of a) intersect (column lattice of b)."""
    m, ka = a.shape
    m2, kb = b.shape
    if m != m2:
        raise ValueError("ambient dimensions differ")
    stacked = IntMatrix(
        [list(ra) + [-x for x in rb] for ra, rb in zip(a.rows, b.rows)]
    )
    snf = smith_normal_form(stacked)
    total = ka + kb
    kernel_cols = [snf.v.col(j) for j in range(snf.rank, total)]
    if not kernel_cols:
        return []
    image = [a.times_vec(col[:ka]) for col in kernel_cols]
    nonzero = [w for w in image if any(w)]
    if not nonzero:
        return []
    return column_lattice_basis(IntMatrix.from_cols(nonzero))


def echelon_basis(cols: Iterable[Sequence[int]]) -> list:
    """Basis of the lattice spanned by cols, in column echelon form.

    Each basis vector's first nonzero entry is positive and lies in a
    later row than the previous vector's.  Only unimodular integer column
    operations are used, so the lattice is unchanged.
    """
    work = [list(c) for c in cols if any(c)]
    basis = []
    for i in range(len(work[0]) if work else 0):
        live = [c for c in work if c[i]]
        if not live:
            continue
        # Euclid on row i: reduce by the smallest entry until one is left
        while len(live) > 1:
            piv = min(live, key=lambda c: abs(c[i]))
            nxt = [piv]
            for c in live:
                if c is not piv:
                    k = c[i] // piv[i]
                    c[:] = [x - k * y for x, y in zip(c, piv)]
                    if c[i]:
                        nxt.append(c)
            live = nxt
        (piv,) = live
        if piv[i] < 0:
            piv[:] = [-x for x in piv]
        basis.append(tuple(piv))
        work = [c for c in work if c is not piv and any(c)]
    return basis

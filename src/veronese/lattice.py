"""Exact integer lattices: one basis routine and one kernel routine.

Everything is plain Python ints, no floating point anywhere.  Lattices
are given by integer matrices whose columns generate them.  Every
lattice basis is an integer echelon basis (Cohen, GTM 138, section
2.4); the Smith normal form is kept only for the integer kernel that
``lattice_intersection`` needs, so it tracks the column transform v and
nothing else.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .records import record


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


@record
class SnfResult:
    """u * a * v = diag(d) for some unimodular u, which is not kept; d
    has a divisibility chain.

    Only v is tracked: a * v = u^-1 * diag(d) vanishes past the rank, so
    the columns of the unimodular v from index rank on are a basis of
    the integer kernel of a.
    """

    d: tuple
    v: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for x in self.d if x)


def smith_normal_form(a: IntMatrix) -> SnfResult:
    m, n = a.shape
    w = [list(row) for row in a.rows]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        w[i], w[j] = w[j], w[i]

    def col_swap(i, j):
        for r in w:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row i += c * row j
        w[i] = [x + c * y for x, y in zip(w[i], w[j])]

    def col_add(j, i, c):
        # col j += c * col i
        for r in w:
            r[j] += c * r[i]
        for r in v:
            r[j] += c * r[i]

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
            w[t] = [-x for x in w[t]]
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

    return SnfResult(tuple(w[i][i] for i in range(limit)), IntMatrix(v))


def lattice_intersection(a: IntMatrix, b: IntMatrix) -> list:
    """Echelon basis of (column lattice of a) intersect (column lattice
    of b).

    The kernel of [a | -b] pairs each common vector x = a*y = b*z with
    (y, z); one SNF gives a kernel basis, and its images under a span
    the intersection.
    """
    m, ka = a.shape
    if m != b.shape[0]:
        raise ValueError("ambient dimensions differ")
    stacked = IntMatrix(
        [list(ra) + [-x for x in rb] for ra, rb in zip(a.rows, b.rows)]
    )
    snf = smith_normal_form(stacked)
    kernel = (snf.v.col(j) for j in range(snf.rank, stacked.shape[1]))
    return echelon_basis(a.times_vec(col[:ka]) for col in kernel)


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

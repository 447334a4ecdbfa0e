"""Affine semigroup membership and p-gluing decompositions.

A split (T1, T2) of a generating set is a p-gluing when the lattices
they span meet in a rank-1 lattice Z*alpha whose generator, scaled by
some power p^s, lands in both numeric semigroups.  A generating set is
completely glued when it peels down to linearly independent leaves
through such splits, one element at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from operator import sub
from typing import Optional, Union

from .lattice import (
    IntMatrix,
    lattice_intersection,
    quotient_order,
    smith_normal_form,
)

DEFAULT_S_CAP = 16


class UndecidedError(Exception):
    """Membership search hit its multiplicity bound before deciding."""


class GluingNotFoundError(Exception):
    """No peel order yields a complete gluing."""


@dataclass(frozen=True)
class SemigroupGens:
    """Finite list of nonzero nonnegative integer vectors."""

    dim: int
    gens: tuple

    def __post_init__(self):
        seen = set()
        for g in self.gens:
            if len(g) != self.dim:
                raise ValueError(f"generator {g!r} has wrong dimension")
            if any((not isinstance(x, int)) or x < 0 for x in g):
                raise ValueError(f"generator {g!r} must be nonnegative integers")
            if not any(g):
                raise ValueError("zero generator not allowed")
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        if not self.gens:
            raise ValueError("need at least one generator")

    @classmethod
    def of(cls, vectors) -> "SemigroupGens":
        vs = tuple(tuple(v) for v in vectors)
        if not vs:
            raise ValueError("need at least one generator")
        return cls(len(vs[0]), vs)

    def graded_degree(self) -> Optional[int]:
        """Common coordinate sum of all generators, if there is one."""
        sums = {sum(g) for g in self.gens}
        return sums.pop() if len(sums) == 1 else None

    def matrix(self) -> IntMatrix:
        return IntMatrix.from_cols(self.gens)

    def without(self, g) -> "SemigroupGens":
        return SemigroupGens(self.dim, tuple(x for x in self.gens if x != g))

    def is_free(self) -> bool:
        """Linearly independent generators span a free semigroup."""
        if len(self.gens) > self.dim:
            return False
        return smith_normal_form(self.matrix()).rank == len(self.gens)


def semigroup_member(
    gens: SemigroupGens, target, bound: Optional[int] = None
):
    """Multiplicity vector writing target as an N-combination, or None.

    The graded case (all generators share a coordinate sum) is always
    decided.  Otherwise the search is exhaustive up to the bound on
    total multiplicity and raises UndecidedError when truncated.
    """
    target = tuple(target)
    if len(target) != gens.dim:
        raise ValueError("target has wrong dimension")
    if any((not isinstance(x, int)) or x < 0 for x in target):
        return None
    deg = gens.graded_degree()
    if deg is not None:
        total = sum(target)
        if total % deg:
            return None
        depth = total // deg
        if bound is not None and depth > bound:
            raise UndecidedError(f"needs multiplicity {depth} > bound {bound}")
        bound = depth

    glist = gens.gens
    truncated = False
    failed: dict = {}
    # depth-first search over picks in generator order, on an explicit
    # stack so deep targets cannot exhaust the recursion limit: frames[d]
    # is [rest, start, budget, next generator to try, cut] and picks[d]
    # the generator frame d descended through.  A (rest, start) that
    # found no split is remembered in failed with the budget it failed
    # at when the bound cut its search (cut), with inf otherwise; a later
    # visit skips it only if it brings no more budget.  No bound is an
    # inf budget.
    picks: list = []
    frames: list = []
    found = not any(target)
    if not found:
        if bound is not None and bound <= 0:
            truncated = True
        else:
            frames.append([target, 0, inf if bound is None else bound, 0, False])
    while frames and not found:
        frame = frames[-1]
        rest, start, budget, i, _ = frame
        child = budget - 1
        for i in range(i, len(glist)):
            left = tuple(map(sub, rest, glist[i]))
            if min(left) < 0:
                continue
            if not any(left):
                found = True
            elif child <= 0:  # left needs picks past the bound
                truncated = frame[4] = True
                continue
            elif failed.get((left, i), -1) >= child:
                frame[4] = frame[4] or failed[(left, i)] != inf
                continue
            else:
                frame[3] = i + 1
                frames.append([left, i, child, i, False])
            picks.append(i)
            break
        else:
            cut = frame[4]
            failed[(rest, start)] = budget if cut else inf
            frames.pop()
            if picks:
                picks.pop()
            if cut and frames:
                frames[-1][4] = True
    if not found:
        if truncated and deg is None:
            raise UndecidedError(f"undecided at bound {bound}")
        return None
    counts = [0] * len(glist)
    for i in picks:
        counts[i] += 1
    return tuple(counts)


@dataclass(frozen=True)
class GluingWitness:
    """alpha generates the lattice intersection; p^s*alpha lies in both
    numeric semigroups, witnessed by the stored multiplicity vectors."""

    alpha: tuple
    s: int
    rep1: tuple
    rep2: tuple


@dataclass(frozen=True)
class NoGluing:
    reason: str


def check_p_gluing(
    t1: SemigroupGens,
    t2: SemigroupGens,
    p: int,
    s_cap: int = DEFAULT_S_CAP,
) -> Union[GluingWitness, NoGluing]:
    """Decide whether (t1, t2) is a p-gluing of their union."""
    if t1.dim != t2.dim:
        raise ValueError("generator sets live in different dimensions")
    if s_cap < 0:
        raise ValueError(f"s_cap must be >= 0, got {s_cap}")
    single = len(t2.gens) == 1
    if single:
        # L(t1) meets Z*beta in Z*(d*beta), d the order of beta mod L(t1)
        d = quotient_order(t1.gens, t2.gens[0])
        if not d:
            return NoGluing("intersection rank 0 != 1")
        alpha = tuple(d * x for x in t2.gens[0])
    else:
        basis = lattice_intersection(t1.matrix(), t2.matrix())
        if len(basis) != 1:
            return NoGluing(f"intersection rank {len(basis)} != 1")
        alpha = basis[0]
        if all(x <= 0 for x in alpha):
            alpha = tuple(-x for x in alpha)
        if any(x < 0 for x in alpha):
            return NoGluing("generator not sign-definite")
    scaled = alpha
    for s in range(s_cap + 1):
        rep1 = semigroup_member(t1, scaled)
        if rep1 is not None:
            # over {beta} alone, p^s*d*beta has the one representation p^s*d
            rep2 = (p**s * d,) if single else semigroup_member(t2, scaled)
            if rep2 is not None:
                return GluingWitness(tuple(alpha), s, rep1, rep2)
        scaled = tuple(p * x for x in scaled)
    return NoGluing(f"no admissible s <= {s_cap}")


def validate_witness(
    t1: SemigroupGens, t2: SemigroupGens, p: int, w: GluingWitness
) -> bool:
    """Recheck a stored witness from scratch with a fresh SNF pass."""
    basis = lattice_intersection(t1.matrix(), t2.matrix())
    if len(basis) != 1:
        return False
    g = basis[0]
    if tuple(g) != tuple(w.alpha) and tuple(-x for x in g) != tuple(w.alpha):
        return False
    target = tuple(p**w.s * x for x in w.alpha)
    for gens, rep in ((t1, w.rep1), (t2, w.rep2)):
        if len(rep) != len(gens.gens) or any(c < 0 for c in rep):
            return False
        combo = [0] * gens.dim
        for c, vec in zip(rep, gens.gens):
            for i, x in enumerate(vec):
                combo[i] += c * x
        if tuple(combo) != target:
            return False
    return True


@dataclass(frozen=True)
class FreeNode:
    """Leaf: linearly independent generators, nothing left to glue."""

    gens: SemigroupGens


@dataclass(frozen=True)
class GluedNode:
    gens: SemigroupGens
    witness: GluingWitness
    left: "GluingTree"
    right: "GluingTree"


GluingTree = Union[FreeNode, GluedNode]


def tree_witnesses(tree: GluingTree) -> list:
    """(t1, t2, witness) triples for every glued node, root first."""
    out = []
    if isinstance(tree, GluedNode):
        out.append((tree.left.gens, tree.right.gens, tree.witness))
        out.extend(tree_witnesses(tree.left))
        out.extend(tree_witnesses(tree.right))
    return out


def completely_p_glued(
    gens: SemigroupGens,
    p: int,
    h: int,
    s_cap: Optional[int] = None,
) -> GluingTree:
    """Build a full gluing tree by peeling one generator per level.

    Generators that are not pure q*e_i multiples are peeled first, which
    matches the inductive construction for the degree-q coordinate sets;
    if the preferred order fails every remaining order is tried.
    """
    cap = s_cap if s_cap is not None else h + 8
    if cap < 0:
        raise ValueError(f"s_cap must be >= 0, got {cap}")
    q = p**h

    def is_axis(g) -> bool:
        return sum(1 for x in g if x) == 1 and max(g) == q

    dead: set = set()

    def build(active: SemigroupGens) -> GluingTree:
        if active.is_free():
            return FreeNode(active)
        key = frozenset(active.gens)
        if key in dead:
            raise GluingNotFoundError("not found")
        candidates = [g for g in active.gens if not is_axis(g)]
        candidates += [g for g in active.gens if is_axis(g)]
        for beta in candidates:
            rest = active.without(beta)
            single = SemigroupGens(active.dim, (beta,))
            w = check_p_gluing(rest, single, p, cap)
            if isinstance(w, NoGluing):
                continue
            try:
                left = build(rest)
            except GluingNotFoundError:
                continue
            return GluedNode(active, w, left, FreeNode(single))
        dead.add(key)
        raise GluingNotFoundError("not found")

    return build(gens)

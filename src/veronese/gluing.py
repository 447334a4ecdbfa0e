"""Affine semigroup membership and p-gluing decompositions.

A split (T1, T2) of a generating set is a p-gluing when the lattices
they span meet in a rank-1 lattice Z*alpha whose generator, scaled by
some power p^s, lands in both numeric semigroups.  A generating set is
completely glued when it peels down to linearly independent leaves
through such splits, one element at a time.  The degree-q exponent set
T of a Veronese cone is peeled in one fixed order, every non-axis
generator in turn, down to the n axes q*e_i; that every such peel is a
p-gluing is proved, so no other order is ever searched.

The order d of each beta modulo L(rest) and its least exponent s are
lemmas, not computations: d = q when beta = e_j + (q-1)*e_n, else 1,
and s is the least with p^s*d*m >= q, m the first nonzero entry of
beta (proved in ``completely_p_glued``).  So a comb does no lattice
work and one membership search per peel.  Membership runs on T packed
once into ints, one field per coordinate with a guard bit on top as in
the Groebner kernel: a pick is one subtraction, valid when every guard
survives, and each peel only deletes its beta from the packed list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .combinatorics import VeroneseParams, exponent_vectors
from .lattice import IntMatrix, echelon_basis, lattice_intersection


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
        """Linearly independent generators span a free semigroup.

        The rank is the length of an integer echelon basis; more
        generators than coordinates are dependent, and no basis is built.
        """
        if len(self.gens) > self.dim:
            return False
        return len(echelon_basis(self.gens)) == len(self.gens)


class PackedGens:
    """Generators packed into ints for the membership search.

    Coordinate i of a vector sits in field i of ``width`` bits, whose
    top bit is a guard; every entry of a generator or target stays below
    the guard.  A remainder carries its coordinates with every guard
    set, so subtracting a generator is one integer subtraction that
    borrows from no other field, and it keeps every guard exactly when
    no coordinate goes negative.  ``gens`` lists the packed generators
    in the order of the vectors given; ``remove`` deletes one in place.
    """

    __slots__ = ("dim", "width", "guards", "gens")

    def __init__(self, vectors, top: int):
        """Fields wide enough for every entry of vectors and for targets
        with entries up to top."""
        self.dim = len(vectors[0])
        w = self.width = max(top, *map(max, vectors)).bit_length() + 1
        self.guards = sum(1 << (i * w + w - 1) for i in range(self.dim))
        self.gens = [self.pack(v) for v in vectors]

    def pack(self, v) -> int:
        return sum(x << (i * self.width) for i, x in enumerate(v))

    def remove(self, v) -> None:
        self.gens.remove(self.pack(v))

    def member(self, target):
        """Multiplicity vector writing target as an N-combination of the
        generators, or None.

        The search is depth first over picks in generator order and
        returns the first witness in that order.  Every pick lowers the
        coordinate sum, so the search is finite and always decides.  A
        target with an entry at or above the guard raises ValueError.
        """
        if min(target) < 0:
            return None
        if max(target) >> (self.width - 1):
            raise ValueError(
                f"target {tuple(target)} does not fit {self.width}-bit fields"
            )
        glist, guards = self.gens, self.guards
        end = len(glist)
        # an explicit stack, so deep targets cannot exhaust the recursion
        # limit: frames[d] is [rest, next generator to try] and picks[d]
        # the generator frame d descended through.  Picks never decrease,
        # so pick sequences are visited in lexicographic order.  A rest
        # that found no split goes into failed and is never searched
        # again, even where a later visit may pick earlier generators:
        # if the picks P that first reached it and some split R of it
        # used a generator before P's last, sorted(P + R) would be a
        # witness lexicographically before P, found before P was reached.
        failed: set = set()
        picks: list = []
        root = self.pack(target) | guards
        frames = [[root, 0]] if root != guards else []
        found = not frames
        while frames and not found:
            frame = frames[-1]
            rest, i = frame
            for i in range(i, end):
                left = rest - glist[i]
                if left & guards != guards:
                    continue
                if left == guards:
                    found = True
                elif left in failed:
                    continue
                else:
                    frame[1] = i + 1
                    frames.append([left, i])
                picks.append(i)
                break
            else:
                failed.add(rest)
                frames.pop()
                if picks:
                    picks.pop()
        if not found:
            return None
        counts = [0] * len(glist)
        for i in picks:
            counts[i] += 1
        return tuple(counts)


def semigroup_member(gens: SemigroupGens, target):
    """Multiplicity vector writing target as an N-combination, or None.

    The first witness in generator order, found by the packed search of
    ``PackedGens.member`` with fields as wide as the target needs.  A
    target whose sum is not a multiple of the generators' common degree
    is refused at once.
    """
    target = tuple(target)
    if len(target) != gens.dim:
        raise ValueError("target has wrong dimension")
    if any((not isinstance(x, int)) or x < 0 for x in target):
        return None
    deg = gens.graded_degree()
    if deg is not None and sum(target) % deg:
        return None
    return PackedGens(gens.gens, max(target)).member(target)


@dataclass(frozen=True)
class GluingWitness:
    """alpha generates the lattice intersection; p^s*alpha lies in both
    numeric semigroups, witnessed by the stored multiplicity vectors."""

    alpha: tuple
    s: int
    rep1: tuple
    rep2: tuple


def check_p_gluing(
    rest: PackedGens, beta: tuple, d: int, p: int, s: int
) -> Optional[GluingWitness]:
    """The witness that (rest, {beta}) is a p-gluing at exponent s, or None.

    d is the order of beta modulo L(rest), 0 when beta is outside its
    span: L(rest) meets Z*beta in Z*(d*beta), so alpha = d*beta.  Over
    {beta} alone p^s*alpha has the one representation p^s*d; only rest
    is searched, once, at the given s.  rest must be packed for targets
    up to p^s*d*max(beta), or the search raises ValueError.
    """
    if len(beta) != rest.dim:
        raise ValueError("beta and rest live in different dimensions")
    if not d:
        return None
    alpha = tuple(d * x for x in beta)
    rep1 = rest.member(tuple(p**s * x for x in alpha))
    return None if rep1 is None else GluingWitness(alpha, s, rep1, (p**s * d,))


def validate_witness(
    t1: SemigroupGens, t2: SemigroupGens, p: int, w: GluingWitness
) -> bool:
    """Recheck a stored witness from scratch: one SNF for the kernel,
    then an echelon basis of the intersection, which must be Z*alpha."""
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
class GluingComb:
    """The gluing tree of gens, stored flat: every peel splits one beta
    off the generators left by the peels before it, so the tree is a
    comb.  peels holds the (beta, witness) pairs in peel order and free
    the last left leaf; the right leaves are the single betas."""

    gens: SemigroupGens
    peels: tuple
    free: SemigroupGens


def completely_p_glued(params: VeroneseParams) -> GluingComb:
    """The gluing comb of T, peeling one non-axis generator at a time.

    The non-axis generators beta are peeled in list order, the ascending
    lex order of their index tuples, so the rest of a peel is the n axes
    q*e_i and the betas after beta.  Lemma: the order d of beta modulo
    L(rest) is q when beta = e_j + (q-1)*e_n with j < n, and 1 for every
    other beta.  Let j be the least index of beta's tuple, m times in it.

    - beta = e_j + (q-1)*e_n: its tuple (j, n, ..., n) is the largest
      one starting with j, so every later beta' has beta'_j = 0, and the
      axes give multiples of q in coordinate j; hence q | d.  And
      q*beta lies in L(axes), so d | q.
    - m >= 2: for any k > j in the support of beta,
      beta = (beta - e_j + e_k) + (e_j + (q-1)*e_k) - q*e_k, and both
      tuples come after beta's, so d = 1.
    - m = 1 otherwise: e_j + (q-1)*e_n is a later tuple, and beta minus
      it has coordinate sum 0 and support in (j, n], so it is an
      integer sum of e_l - e_k with j < k < l <= n, and each
      e_l - e_k = ((q-1)*e_k + e_l) - q*e_k is a later tuple minus an
      axis; so d = 1.

    Lemma: the least s with p^s*alpha in N(rest) is the least s with
    p^s*d*m >= q.  When d = q, alpha = q*beta is a sum of axes and
    s = 0.  When d = 1, the witness found at that s is the proof that
    it suffices (a peel whose search finds none raises RuntimeError);
    for leastness, write p^s*beta as a sum of p^s generators of rest
    (all have degree q), each 0 below j, so no axis q*e_i with i < j.
    A later beta' that is 0 below j has beta'_j <= m, as a tuple with
    more j's comes earlier.  If q*e_j is not picked, the picks' j-th
    entries, each at most m, sum to p^s*m, so each is m; past its m j's
    each pick's tuple is still later than beta's, and the argument
    repeats at beta's next index until every pick is beta, which is
    not in rest.  So q*e_j is picked, and p^s*m >= q.

    So each peel is a p-gluing found by one search, s <= h, s = 0
    exactly when d = q (m < q otherwise), and the n axes are the free
    leaf left at the end.  T is packed once, with fields for the largest
    target p^s*d*max(beta) of any peel, and each peel deletes its beta
    from it.
    """
    p, h, q = params.p, params.h, params.q
    gens = SemigroupGens.of(exponent_vectors(params))
    betas = [g for g in gens.gens if sum(1 for x in g if x) > 1]
    axes = [g for g in gens.gens if sum(1 for x in g if x) == 1]
    plan = []
    for beta in betas:
        d = q if beta[-1] == q - 1 else 1
        # the least s with p^s*d*m >= q: the number of k < h short of q
        dm = d * next(x for x in beta if x)
        plan.append((beta, d, sum(p**k * dm < q for k in range(h))))
    top = max((p**s * d * max(b) for b, d, s in plan), default=0)
    rest = PackedGens(gens.gens, top)
    peels = []
    for beta, d, s in plan:
        rest.remove(beta)
        w = check_p_gluing(rest, beta, d, p, s)
        if w is None:
            raise RuntimeError(f"peel of {beta} is no p-gluing at s = {s}")
        peels.append((beta, w))
    return GluingComb(gens, tuple(peels), SemigroupGens(gens.dim, tuple(axes)))

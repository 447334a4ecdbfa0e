"""Affine semigroup membership and p-gluing decompositions.

A split (T1, T2) of a generating set is a p-gluing when the lattices
they span meet in a rank-1 lattice Z*alpha whose generator, scaled by
some power p^s, lands in both numeric semigroups.  A generating set is
completely glued when it peels down to linearly independent leaves
through such splits, one element at a time (Rosales, Semigroup Forum
1997).  The degree-q exponent set T of a Veronese cone is peeled in one
fixed order, every non-axis generator in turn, down to the n axes
q*e_i; that every such peel is a p-gluing is proved, so no other order
is ever tried.

Every part of a peel's witness is a lemma, not a computation (all
proved in ``completely_p_glued``): the order d of beta modulo L(rest)
is q when beta = e_j + (q-1)*e_n, else 1; s is the least with
p^s*d*m >= q, m the first nonzero entry of beta; and p^s*d*beta is cut
into generators of rest by a block rule on index tuples, axes first,
then blocks that each come later than beta's tuple.  So a comb does no
lattice work and no membership search.  ``semigroup_member`` stays for
callers with other generating sets: a depth-first search on tuples.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import sub

from .combinatorics import VeroneseParams, exponent_vectors, index_tuples
from .lattice import IntMatrix, echelon_basis, lattice_intersection
from .records import record


@record
class SemigroupGens:
    """Finite list of nonzero nonnegative integer vectors."""

    dim: int
    gens: tuple

    def __post_init__(self):
        seen = set()
        for g in self.gens:
            if len(g) != self.dim:
                raise ValueError(f"generator {g!r} has wrong dimension")
            if any(type(x) is not int or x < 0 for x in g):
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

    def graded_degree(self) -> int | None:
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


def semigroup_member(gens: SemigroupGens, target):
    """Multiplicity vector writing target as an N-combination, or None.

    The first witness in generator order, found depth first over picks
    on exponent tuples.  Every pick lowers the coordinate sum, so the
    search is finite and always decides.  A target whose sum is not a
    multiple of the generators' common degree is refused at once.
    """
    target = tuple(target)
    if len(target) != gens.dim:
        raise ValueError("target has wrong dimension")
    if any((not isinstance(x, int)) or x < 0 for x in target):
        return None
    deg = gens.graded_degree()
    if deg is not None and sum(target) % deg:
        return None
    vectors = gens.gens
    # an explicit stack, so deep targets cannot exhaust the recursion
    # limit: frames[d] is [rest, start, next generator to try] and
    # picks[d] the generator frame d descended through; a (rest, start)
    # that found no split is never searched again
    failed: set = set()
    picks: list = []
    frames = [[target, 0, 0]] if any(target) else []
    found = not frames
    while frames and not found:
        frame = frames[-1]
        rest, start, i = frame
        for i in range(i, len(vectors)):
            left = tuple(map(sub, rest, vectors[i]))
            if min(left) < 0:
                continue
            if not any(left):
                found = True
            elif (left, i) in failed:
                continue
            else:
                frame[2] = i + 1
                frames.append([left, i, i])
            picks.append(i)
            break
        else:
            failed.add((rest, start))
            frames.pop()
            if picks:
                picks.pop()
    if not found:
        return None
    counts = [0] * len(vectors)
    for i in picks:
        counts[i] += 1
    return tuple(counts)


@record
class GluingWitness:
    """alpha generates the lattice intersection; p^s*alpha lies in both
    numeric semigroups, witnessed by the stored multiplicity vectors."""

    alpha: tuple
    s: int
    rep1: tuple
    rep2: tuple


def _tail_above(w: list, tau: tuple):
    """The least weakly increasing tuple of len(tau) entries of w, an
    ascending list, that is lexicographically greater than tau, taken
    out of w; or None.  It keeps the longest prefix of tau it can, then
    the least entry past tau's next one and the least entries after."""
    left, i = list(w), 0
    while i < len(tau) - 1 and tau[i] in left:
        left.remove(tau[i])
        i += 1
    for i in range(i, -1, -1):
        x = bisect_right(left, tau[i])
        if len(left) - x >= len(tau) - i:
            tail = tau[:i] + tuple(left[x : x + len(tau) - i])
            for y in tail:
                w.remove(y)
            return tail
        if i:
            insort(left, tau[i - 1])
    return None


def check_p_gluing(params: VeroneseParams, beta: tuple) -> GluingWitness:
    """The witness that (rest, {beta}) is a p-gluing, beta a non-axis
    generator of T and rest the axes and the generators after it.

    d and s are the lemmas of ``completely_p_glued`` and rep1 its block
    rule, so nothing is searched.  rep1 counts the blocks over rest in
    generator order; a block's place there is read off T's sorted index
    tuples, past the j axes (1..1) ... (j..j) that come before beta.
    """
    p, h, q = params.p, params.h, params.q
    tuples = index_tuples(params)
    t = tuple(i for i, x in enumerate(beta, 1) for _ in range(x))
    at = bisect_left(tuples, t)
    if len(beta) != params.n or tuples[at : at + 1] != (t,) or q in beta:
        raise ValueError(f"{beta!r} is no non-axis generator of T")
    j = t[0]
    m = beta[j - 1]
    d = q if beta[-1] == q - 1 else 1
    # the least s with p^s*d*m >= q: the number of e < h short of q
    s = sum(p**e * d * m < q for e in range(h))
    k = p**s * d
    a, r = divmod(k * m, q)
    tau = t[m:]
    w = sorted(tau * k)  # the entries past j left, ascending
    rep1 = [0] * (j + len(tuples) - at - 1)
    rep1[j - 1] = a
    for _ in range(k - a):
        c = min(m, r)
        tail = _tail_above(w, tau) if c == m else None
        if tail is None:
            c = min(c, m - 1)
            tail = tuple(w[: q - c])
            del w[: q - c]
        r -= c
        # every block comes after beta: past the j axes before it
        rep1[j + bisect_left(tuples, (j,) * c + tail) - at - 1] += 1
    return GluingWitness(tuple(d * x for x in beta), s, tuple(rep1), (k,))


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


@record
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
    - m >= 2: for any i > j in the support of beta,
      beta = (beta - e_j + e_i) + (e_j + (q-1)*e_i) - q*e_i, and both
      tuples come after beta's, so d = 1.
    - m = 1 otherwise: e_j + (q-1)*e_n is a later tuple, and beta minus
      it has coordinate sum 0 and support in (j, n], so it is an
      integer sum of e_l - e_i with j < i < l <= n, and each
      e_l - e_i = ((q-1)*e_i + e_l) - q*e_i is a later tuple minus an
      axis; so d = 1.

    Lemma: the least s with p^s*alpha in N(rest) is the least s with
    p^s*d*m >= q.  When d = q, alpha = q*beta is a sum of axes and
    s = 0.  When d = 1, the block rule below writes p^s*beta at that s,
    so it suffices; for leastness, write p^s*beta as a sum of p^s
    generators of rest (all have degree q), each 0 below j, so no axis
    q*e_i with i < j.  A later beta' that is 0 below j has
    beta'_j <= m, as a tuple with more j's comes earlier.  If q*e_j is
    not picked, the picks' j-th entries, each at most m, sum to p^s*m,
    so each is m; past its m j's each pick's tuple is still later than
    beta's, and the argument repeats at beta's next index until every
    pick is beta, which is not in rest.  So q*e_j is picked, and
    p^s*m >= q.

    The block rule writes k*beta, k = p^s*d, in rest.  Let tau be
    beta's tuple past its m j's and (a, r) = divmod(k*m, q).  Take a
    axes (j..j), then cut the r j's left and k copies of tau into
    K = k - a blocks of q, one at a time.  A block takes
    c = min(m, j's left) j's; with c = m it also needs a tail
    lexicographically greater than tau, the least one left, or else it
    takes m - 1 j's; every other entry is the least non-j entry left.

    - Each block is in rest: with fewer than m j's and then entries
      past j, or with m j's and a later tail, its tuple is later than
      beta's, and (j..j) is an axis.  Together they use up k*beta's
      index multiset, if no block runs short and no j is left over.
    - r != m: d = q gives s = 0, k = q and r = 0; d = 1 gives s >= 1,
      and r = m would need q | m*(k - 1), but k - 1 = p^s - 1 is prime
      to p and 0 < m < q.
    - r < m: the first block takes all r j's, so the blocks are the
      consecutive split of the sorted multiset, and none runs short.
    - r > m: while m or more j's are left a block takes m or m - 1, so
      after i blocks at most max(0, r - i*(m - 1)) <= (K - i)*(m - 1)
      are left, given r <= K*(m - 1), and the other entries left, q
      per block left minus those, always fill a block.  Under
      ``MAX_Q``, r > m only for (q, m) in (8, 3), (9, 5), (16, 3),
      (16, 6) and (16, 7), and each has r <= K*(m - 1).

    So each peel is a p-gluing, s <= h, s = 0 exactly when d = q (m < q
    otherwise), and the n axes are the free leaf left at the end.  The
    rule's rep1 is also the first witness in generator order of a
    depth-first search over rest (the tests' oracle): checked on every
    set with |T| <= 600 and past it, not proved.
    """
    gens = SemigroupGens.of(exponent_vectors(params))
    q = params.q
    peels = tuple((b, check_p_gluing(params, b)) for b in gens.gens if q not in b)
    axes = tuple(g for g in gens.gens if q in g)
    return GluingComb(gens, peels, SemigroupGens(gens.dim, axes))

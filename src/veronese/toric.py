"""Binomials of the defining ideal and rewriting into quadratic pieces.

A monomial lies in the kernel congruence class of another exactly when
their contents agree; a difference of q-tuple blocks scrambled by a
permutation is rewritten as a telescoping sum of degree-2 binomials,
each step swapping one index between two blocks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, groupby, repeat
from operator import itemgetter

from .combinatorics import (
    VeroneseParams,
    exponent_of,
    index_tuples,
    integer_ring,
    polynomial_ring,
)
from .polys import Poly, PolyRing, pair_exponents
from .records import record


class ZeroBinomialError(ValueError):
    """The two sides of the binomial are the same monomial."""


def normalize_sign(g: Poly) -> Poly:
    """Flip an integer binomial so the lex-larger monomial comes positive."""
    if g.is_zero():
        return g
    terms = g.raw_terms()
    lead = max(terms)  # plain tuple comparison = lex with first variable largest
    return -g if terms[lead] < 0 else g


def _sweep(params: VeroneseParams, full: bool, dense: bool = False) -> list:
    """The (+, -) monomials of each binomial of quadratic_generators, in
    order: position pairs (i, j), i <= j in T, or when dense their
    exponent tuples, each built once and only if it is in the output.

    One sweep over the pairs (i, j), i <= j, finds every leader without
    grouping.  The dense exponent tuple of x_i * x_j is lex larger than
    that of x_i' * x_j' exactly when (i, j) < (i', j'): the first
    differing entry sits at the smaller first index, or at i = i' at the
    smaller second one.  So a group's leader is its least pair and its
    members arrive in descending lex order.  The least pair of content c
    is its consecutive split (c[:q], c[q:]), c sorted: T is in ascending
    lex order, so the least first factor is the least q entries of c,
    and they leave c[q:].  A pair (t, t') is that split exactly when
    t[-1] <= t'[0], since then t + t' is c sorted.  As T is sorted,
    t'[0] grows with j, and the least tuple starting at t[-1] is the
    pure one (t[-1], ..., t[-1]), at or after t; so for each i the
    members are the j below that pure tuple and the leaders the j from
    it on.  A content is kept as an int in base 2q + 1, first coordinate
    highest, so ascending ints are ascending content vectors, and a
    pair's content is the sum of its two codes; a stable sort of the
    members by it gives the groups in order.
    """
    tuples = index_tuples(params)
    m, base = len(tuples), 2 * params.q + 1
    code = [sum(base ** (params.n - v) for v in t) for t in tuples]
    pure = {t[0]: i for i, t in enumerate(tuples) if t[0] == t[-1]}
    leaders: dict = {}  # content code -> its consecutive split (i, j)
    members = []  # (content code, (i, j))
    for i, t in enumerate(tuples):
        ci, split = code[i], pure[t[-1]]
        members += [(ci + code[j], (i, j)) for j in range(i, split)]
        leaders.update((ci + code[j], (i, j)) for j in range(split, m))
    members.sort(key=itemgetter(0))
    out = []
    for c, run in groupby(members, key=itemgetter(0)):
        run = [leaders[c]] + [pair for _, pair in run]
        if dense:
            run = [pair_exponents(m, i, j) for i, j in run]
        out += combinations(run, 2) if full else zip(repeat(run[0]), run[1:])
    return out


@lru_cache(maxsize=None)
def quadric_pairs(params: VeroneseParams, full: bool = False) -> tuple:
    """quadratic_generators as position pairs ``((i, j), (k, l))``:
    x_i * x_j - x_k * x_l with i <= j, k <= l, the + monomial first."""
    return tuple(_sweep(params, full))


@lru_cache(maxsize=None)
def quadratic_generators(params: VeroneseParams, full: bool = False) -> tuple:
    """Degree-2 binomials generating the ideal, integer coefficients.

    Monomials x_t * x_t' are grouped by content; each group contributes
    the differences of its members against the group leader (one per
    member), or every pairwise difference when full=True.  Signs are
    normalized so the lex-larger monomial carries +1.  Groups come in
    ascending content vector, members in descending lex order.  These
    are quadric_pairs with dense exponent tuples, for polynomial
    arithmetic, built by the same sweep, not from its cache.
    """
    ring = integer_ring(params)
    return tuple(Poly(ring, {big: 1, small: -1}) for big, small in _sweep(params, full, True))


@lru_cache(maxsize=None)
def generators_over(params: VeroneseParams, field) -> tuple:
    """quadratic_generators mapped to another coefficient ring, for the
    checks' Groebner bases and zero sets; cached per ring, so each
    generator set is mapped once, onto the one
    polynomial_ring(params, field).  Each binomial keeps its two
    exponent tuples, + first, with coefficients 1 and
    field.normalize(-1), which no coefficient ring sends to 0: its
    terms are copied, which keeps their stored hashes, and the -
    coefficient is set."""
    ring = polynomial_ring(params, field)
    minus = field.normalize(-1)
    out = []
    for g in quadratic_generators(params):
        _, small = terms = g.raw_terms()
        terms = terms.copy()
        terms[small] = minus
        out.append(Poly(ring, terms))
    return tuple(out)


@record
class TypeStarBinomial:
    """Product of s block variables minus the sigma-scrambled product.

    blocks lists s weakly increasing q-tuples; sigma is the image array
    of a permutation of {1..s*q} acting on the concatenated index
    sequence, so slot j of the right side holds index number sigma(j).
    """

    params: VeroneseParams
    blocks: tuple
    sigma: tuple

    def __post_init__(self):
        q, n = self.params.q, self.params.n
        if not self.blocks:
            raise ValueError("need at least one block")
        for b in self.blocks:
            exponent_of(b, n)  # validates shape
            if len(b) != q:
                raise ValueError(f"block {b!r} must have length q={q}")
        sq = len(self.blocks) * q
        if sorted(self.sigma) != list(range(1, sq + 1)):
            raise ValueError(f"sigma must be a permutation of 1..{sq}")

    def left_blocks(self) -> tuple:
        return self.blocks

    def right_blocks(self) -> tuple:
        q = self.params.q
        seq = [i for b in self.blocks for i in b]
        scrambled = [seq[j - 1] for j in self.sigma]
        return tuple(tuple(sorted(scrambled[k : k + q])) for k in range(0, len(scrambled), q))

    def is_zero(self) -> bool:
        return sorted(self.blocks) == sorted(self.right_blocks())

    def poly(self, ring: PolyRing | None = None) -> Poly:
        ring = ring or integer_ring(self.params)
        left, right = (ring.exps_of((b, 1) for b in side)
                       for side in (self.blocks, self.right_blocks()))
        return ring.zero() if left == right else Poly(ring, {left: 1, right: -1})


@record
class RewriteStep:
    """One telescoping move: sign * x^cofactor * quadratic, the quadric
    a quadric_pairs-style position pair of integer_ring(params), the
    cofactor its ascending (position, exponent) pairs."""

    quadratic: tuple
    cofactor: tuple
    sign: int


@record
class RewriteCertificate:
    params: VeroneseParams
    steps: tuple

    def expansion(self) -> Poly:
        """Exact integer sum of the steps; equals the rewritten binomial."""
        ring = integer_ring(self.params)
        var, total = ring.variables, ring.zero()
        for st in self.steps:
            (i, j), (k, l) = st.quadratic
            quad = ring.poly({((var[i], 1), (var[j], 1)): 1, ((var[k], 1), (var[l], 1)): -1})
            cofactor = ring.exps_of((var[i], x) for i, x in st.cofactor)
            total = total + quad * ring.poly({cofactor: st.sign})
        return total

    def __len__(self) -> int:
        return len(self.steps)


def rewrite(binomial: TypeStarBinomial) -> RewriteCertificate:
    """Express the binomial as a combination of degree-2 binomials.

    Greedy block fixing: the first block that differs from its target
    receives a needed index from a block holding it in excess, one
    cross-block swap per emitted step.  Swaps that merely permute equal
    blocks adjust the bookkeeping without emitting a step.  Blocks are
    sorted tuples and steps are read off ring positions, so no step
    costs more with |T|; the + monomial x_i * x_j of a quadric, the
    lex-larger one, is the smaller pair (i, j) (see _sweep).
    """
    params = binomial.params
    pos = integer_ring(params).position
    left, tgt = sorted(binomial.left_blocks()), sorted(binomial.right_blocks())
    if left == tgt:
        raise ZeroBinomialError("zero binomial: sigma permutes the blocks among themselves")

    # divide out blocks common to both sides; they ride along in cofactors
    cur, spectators = [], []
    for b in left:
        if b in tgt:
            tgt.remove(b)
            spectators.append(pos(b))
        else:
            cur.append(b)

    steps: list = []
    while True:
        k = next((i for i in range(len(cur)) if cur[i] != tgt[i]), None)
        if k is None:
            break
        have, want = cur[k], tgt[k]
        alpha = next(x for x in want if want.count(x) > have.count(x))
        beta = next(x for x in have if have.count(x) > want.count(x))
        l = next(i for i in range(len(cur))
                 if i != k and cur[i].count(alpha) > tgt[i].count(alpha))
        new_k, new_l = _swap_once(have, beta, alpha), _swap_once(cur[l], alpha, beta)
        old = tuple(sorted((pos(have), pos(cur[l]))))
        new = tuple(sorted((pos(new_k), pos(new_l))))
        if old != new:
            rest = sorted([pos(b) for i, b in enumerate(cur) if i != k and i != l] + spectators)
            cof = tuple((i, rest.count(i)) for i in dict.fromkeys(rest))
            quad, sign = ((old, new), 1) if old < new else ((new, old), -1)
            steps.append(RewriteStep(quad, cof, sign))
        cur[k], cur[l] = new_k, new_l

    return RewriteCertificate(params, tuple(steps))


def _swap_once(block: tuple, out_value: int, in_value: int) -> tuple:
    items = list(block)
    items.remove(out_value)
    items.append(in_value)
    return tuple(sorted(items))

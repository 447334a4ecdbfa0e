"""The Groebner basis of the Veronese ideal and its normal form, which
is a sort.

The ring has one variable ``x_u`` for each ``u`` in T, the weakly
increasing q-tuples over ``1..n``, sorted ascending, so ``x_(1,...,1)``
is the largest variable in degrevlex.  The toric ideal I is the kernel
of ``x_u -> y^u``: a monomial's *fibre* is its content, the multiset of
its indices, and a degree-d fibre is a multiset of ``d*q`` letters.  A
pair ``x_u * x_v`` with ``u <= v`` is *consecutive* when
``u[-1] <= v[0]``.  The *consecutive split* of a degree-d monomial sorts
its ``d*q`` indices and cuts them into d runs of q; each fibre has one.

``buchberger`` checks the star quadrics G by arithmetic and proves them
the reduced Groebner basis of I:

(a) each element is ``lead - tail`` with ``tail`` the consecutive split
    of ``lead``, so both have one content and G lies in I; the lead is
    non-consecutive and the tail consecutive;
(b) the distinct leads are non-consecutive and number
    ``C(|T|+1, 2) - C(n+2q-1, 2q)``: all degree-2 monomials less the
    consecutive ones, one per degree-2 fibre.  So they are all the
    non-consecutive pairs;
(c) by (b) a monomial no lead divides has its factors pairwise
    consecutive.  Sorted, they chain (``u_k[-1] <= u_(k+1)[0]``), so the
    monomial is the consecutive split of its fibre; and every split is
    pairwise consecutive.  So each fibre holds one standard monomial;
(d) ``G`` lies in I, so ``in(G)`` lies in ``in(I)``, and the standard
    monomials of ``in(I)`` are a basis of ``R/I``, one per fibre in
    every degree.  ``in(G)`` has as many by (c), so ``in(G) = in(I)``
    and G is a Groebner basis of I.  Its tails are consecutive, so no
    lead divides them, and its leads are distinct quadrics, so G is
    reduced.

Every monomial differs from its split by an element of I, and the split
is standard, so ``NF(f)`` is the sum over the fibres of f of the fibre's
coefficient sum times its split.  That is all ``reduce`` computes.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress
from math import comb

from .fields import PrimeField
from .polys import Poly, PolyRing, mono_support
from .records import record


@record
class GroebnerBasis:
    """The reduced Groebner basis of a Veronese ideal: the monic star
    quadrics sorted by leading term, smallest first.  Built only by
    ``buchberger``; ``pairs_processed`` counts S-pairs reduced and is
    always 0."""

    ring: PolyRing
    polys: tuple
    pairs_processed: int

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)


def _refuse(why: str) -> ValueError:
    return ValueError(f"not the star quadrics of a Veronese ideal: {why}")


def _star_shape(variables: tuple) -> tuple:
    """(n, q) when the sorted, distinct variables are exactly T."""
    q = len(variables[0]) if isinstance(variables[0], tuple) else 0
    if q == 0 or not all(
        isinstance(u, tuple) and len(u) == q and all(isinstance(i, int) for i in u)
        and list(u) == sorted(u) and u[0] >= 1 for u in variables
    ):
        raise _refuse("the variables are not weakly increasing index tuples")
    n = max(u[-1] for u in variables)
    if len(variables) != comb(n + q - 1, q):
        raise _refuse(f"the variables are not all {comb(n + q - 1, q)} tuples over 1..{n}")
    return n, q


def _pair(e: tuple) -> tuple:
    """Positions (i, j), i <= j, of a degree-2 monomial; else None."""
    s = mono_support(e)
    if len(s) == 1 and s[0][1] == 2:
        return s[0][0], s[0][0]
    if len(s) == 2 and s[0][1] == s[1][1] == 1:
        return s[0][0], s[1][0]
    return None


def buchberger(gens: Iterable[Poly]) -> GroebnerBasis:
    """The reduced Groebner basis of the ideal of gens, proved by (a)
    and (b) of the module docstring without an S-pair.

    The nonzero gens must be the star quadrics of a Veronese ideal over
    a prime field, each up to a nonzero scalar, each lead at least once.
    Any other input raises ``ValueError``.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    if not isinstance(ring.field, PrimeField):
        raise _refuse("the coefficients are not in a prime field")
    if any(g.ring != ring for g in gens):
        raise ValueError("polynomials live in different rings")
    n, q = _star_shape(ring.variables)
    var, r = ring.variables, ring.field.r
    polys: dict = {}  # (j, i) of the lead -> monic element
    for g in gens:
        terms = g.raw_terms()
        ends = [_pair(e) for e in terms] if len(terms) == 2 else [None]
        if None in ends:
            raise _refuse(f"{g.text()} is not a difference of two quadrics")
        # of x_i*x_j and x_k*x_l (i <= j, k <= l) the degrevlex lead has
        # the smaller (j, i): the last variable decides
        ((lm, cl), (i, j)), ((tm, ct), (k, l)) = sorted(
            zip(terms.items(), ends), key=lambda t: t[1][::-1])
        if (cl + ct) % r:
            raise _refuse(f"{g.text()} is no pure difference once monic")
        u, v = var[i], var[j]
        w = sorted(u + v)
        if u[-1] <= v[0] or (var[k], var[l]) != (tuple(w[:q]), tuple(w[q:])):
            raise _refuse(f"{g.text()} is not a non-consecutive pair minus its split")
        polys[j, i] = Poly(ring, {lm: 1, tm: r - 1})
    want = comb(len(var) + 1, 2) - comb(n + 2 * q - 1, 2 * q)
    if len(polys) != want:
        raise _refuse(f"{len(polys)} distinct leads, not the {want} non-consecutive pairs")
    return GroebnerBasis(ring, tuple(polys[key] for key in sorted(polys, reverse=True)), 0)


def reduce(f: Poly, gb: GroebnerBasis) -> Poly:
    """Normal form of f modulo the ideal of gb: each fibre's coefficient
    sum on its consecutive split.  It is zero exactly for ideal members.
    """
    ring = f.ring
    if ring != gb.ring:
        raise ValueError("f and the basis live in different rings")
    var, pos, r = ring.variables, ring.position, ring.field.r
    q, nvars = len(var[0]), ring.nvars
    out: dict = {}
    for e, c in f.raw_terms().items():
        w: list = []
        for i in compress(range(nvars), e):
            w += var[i] * e[i]
        w.sort()
        split = [0] * nvars
        for a in range(0, len(w), q):
            split[pos(tuple(w[a:a + q]))] += 1
        s = tuple(split)
        out[s] = (out.get(s, 0) + c) % r
    return Poly(ring, {e: c for e, c in out.items() if c})

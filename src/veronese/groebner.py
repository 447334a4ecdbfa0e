"""Buchberger's algorithm and multivariate division over a prime field.

The kernel works on packed monomials (Bachmann and Schoenemann,
"Monomial representations for Groebner bases computations", ISSAC
1998).  A monomial in ``n`` variables is one Python int: exponent ``i``
sits in bits ``[i*W, i*W + W - 1)`` of field ``i`` (``W = FIELD_BITS``),
the top bit of each field is a guard that stays zero, and the total
degree sits above all fields, from bit ``S = n*W``.  Then a product of
monomials is ``+``, ``a`` divides ``b`` exactly when subtracting ``a``
from ``b`` with every guard set borrows from no guard,
``((b | G) - a) & G == G``, and ``((m >> S) << (S + 1)) - m`` is an int
that orders monomials as degrevlex does.  Terms are packed once on the
way in (``buchberger``'s generators and ``reduce``'s argument) and
unpacked once on the way out, so ``Poly`` and every signature here keep
dense exponent tuples.  A total degree above ``MAX_DEGREE`` raises
``ValueError``, both for an input term and for an S-pair whose lcm would
pass it.

Tuned for the binomial ideals that arise here.  Pure-difference
quadrics with distinct leads, such as the star quadrics (already the
reduced basis: Sturmfels' sorting basis), are proved a basis by one
count of the ideal's dimension in degree 3, and no S-pair is queued.
Every other input goes through the pair loop.  There reducer lookup is
indexed by leading-monomial support, pairs with coprime leading terms
are never queued, an installed element queues only its first partner
of each distinct lcm (Gebauer-Moeller criterion F; Gebauer and Moeller,
"On an installation of Buchberger's algorithm", J. Symb. Comput. 1988),
and the pair queue is capped so runaway inputs fail loudly.
S-polynomials and ``reduce``'s argument are reduced term by term from a
cache of monomial normal forms; ``buchberger`` keeps one cache per run
and clears it whenever a reducer is added, so each monomial is divided
once per reducer set, and ``reduce`` starts a new cache at every call.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .fields import PrimeField
from .polys import Poly, PolyRing

PAIR_CAP = 200_000  # S-pairs one basis may process
FIELD_BITS = 16
# the struct code of an unsigned int FIELD_BITS wide, for pack and unpack
_FIELD_CODE = {8: "B", 16: "H", 32: "I", 64: "Q"}[FIELD_BITS]
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1  # the largest value a field holds


class PairLimitExceeded(Exception):
    """Raised when Buchberger would process more S-pairs than allowed."""


class _Layout:
    """Field offsets and masks of the packed monomials in n variables."""

    __slots__ = ("nvars", "shift", "ones", "guards", "fields")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.shift = nvars * FIELD_BITS  # S, the offset of the degree
        self.ones = sum(1 << (i * FIELD_BITS) for i in range(nvars))
        self.guards = self.ones << (FIELD_BITS - 1)  # G
        # the n fields and the degree as little-endian words
        self.fields = struct.Struct(f"<{nvars + 1}{_FIELD_CODE}")

    def pack(self, exps: tuple) -> int:
        d = sum(exps)
        if d > MAX_DEGREE:
            raise ValueError(
                f"total degree {d} exceeds the packed-monomial limit {MAX_DEGREE}"
            )
        try:
            return int.from_bytes(self.fields.pack(*exps, d), "little")
        except struct.error:
            raise ValueError(f"exponents {exps} do not fit the packed fields") from None

    def unpack(self, m: int) -> tuple:
        return self.fields.unpack(m.to_bytes(self.fields.size, "little"))[:-1]

    def key(self, m: int) -> int:
        """key(a) > key(b) iff a > b in degrevlex: the degree decides,
        then the smaller low part, whose top field is the last variable."""
        s = self.shift
        return ((m >> s) << (s + 1)) - m

    def support(self, m: int) -> list:
        """The variables with a nonzero exponent in m, in increasing order."""
        g = self.guards
        nz = ((m | g) - self.ones) & g  # the guards of the nonzero fields
        out = []
        while nz:
            b = nz & -nz
            out.append(b.bit_length() // FIELD_BITS - 1)
            nz ^= b
        return out

    def lcm(self, a: int, b: int) -> int:
        """a times the fieldwise positive part of b - a; the fields of
        that part sum to less than 2^W - 1, so the sum is their value
        modulo 2^W - 1."""
        d = (b | self.guards) - a
        g = d & self.guards
        up = d & (g - (g >> (FIELD_BITS - 1)))
        return a + up + ((up % ((1 << FIELD_BITS) - 1)) << self.shift)


@lru_cache(maxsize=None)
def _layout(nvars: int) -> _Layout:
    return _Layout(nvars)


class _Reducers:
    """Monic reducers as packed (lead, tail) pairs.  ``first`` lists
    each under the lowest variable of its lead, so ``find`` tests every
    candidate once and returns the divisor that comes first by (lowest
    lead variable, insertion index); ``buckets`` lists it under every
    variable of its lead, for pair partners."""

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.lay = _layout(ring.nvars)
        self.lead: list = []
        self.tail: list = []
        self.first: list = [[] for _ in range(ring.nvars)]
        self.buckets: list = [[] for _ in range(ring.nvars)]
        self.constant = None  # index of the reducer 1, if any

    def add(self, lm: int, tail: list) -> int:
        idx = len(self.lead)
        self.lead.append(lm)
        self.tail.append(tail)
        support = self.lay.support(lm)
        if not support:
            self.constant = idx
        else:
            self.first[support[0]].append(idx)
        for v in support:
            self.buckets[v].append(idx)
        return idx

    def add_monic(self, terms: dict) -> int:
        lm = max(terms, key=self.lay.key)
        return self.add(lm, [(e, c) for e, c in terms.items() if e != lm])

    def find(self, m: int):
        if self.constant is not None:
            return self.constant
        # walks m's nonzero fields as support() does, but stops at the
        # first divisor; building the support list first costs about a
        # sixth of buchberger's time on the star quadrics
        g = self.lay.guards
        mg = m | g
        nz = (mg - self.lay.ones) & g
        first, lead = self.first, self.lead
        while nz:
            b = nz & -nz
            for i in first[b.bit_length() // FIELD_BITS - 1]:
                if (mg - lead[i]) & g == g:
                    return i
            nz ^= b
        return None


def _packed(f: Poly, lay: _Layout) -> dict:
    return {lay.pack(e): c for e, c in f.raw_terms().items()}


def _unpacked(ring: PolyRing, terms: dict, lay: _Layout) -> Poly:
    return Poly(ring, {lay.unpack(e): c for e, c in terms.items()})


def _monic(terms: dict, lay: _Layout, r: int) -> dict:
    inv = pow(terms[max(terms, key=lay.key)], -1, r)
    return {e: c * inv % r for e, c in terms.items()}


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, tail-reduced, sorted by leading term.
    Built only by ``buchberger``, which hands over the reducer index it
    has already built as ``_red``; every reduce shares it."""

    ring: PolyRing
    polys: tuple
    pairs_processed: int
    _red: _Reducers = field(repr=False, compare=False)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)


def _monomial_nf(m: int, red: _Reducers, cache: dict, r: int) -> dict:
    """Remainder of the monomial m on division by red, with the remainder
    of every monomial met on the way stored in cache.

    The division remainder is linear in the dividend when each monomial
    is always reduced by the same reducer (the one ``find`` returns), so
    the remainder of m is its own when no lead divides it, and otherwise
    minus the sum of the remainders of its reducer's shifted tail terms.
    Those are smaller than m, so the walk ends; it runs on an explicit
    stack, and ``shifted`` keeps each monomial's tail between its two
    visits.  The cached dicts are shared and never mutated.
    """
    find, lead, tails = red.find, red.lead, red.tail
    shifted: dict = {}
    stack = [m]
    while stack:
        t = stack[-1]
        if t in cache:
            stack.pop()
            continue
        tail = shifted.get(t)
        if tail is None:
            i = find(t)
            if i is None:
                cache[t] = {t: 1}
                stack.pop()
                continue
            delta = t - lead[i]
            tail = shifted[t] = [(e + delta, c) for e, c in tails[i]]
            missing = [e for e, _ in tail if e not in cache]
            if missing:
                stack += missing
                continue
        stack.pop()
        nf: dict = {}
        for e, c in tail:
            for f, cf in cache[e].items():
                s = (nf.get(f, 0) - c * cf) % r
                if s:
                    nf[f] = s
                else:
                    del nf[f]
        cache[t] = nf
    return cache[m]


def _add_remainder(out: dict, tail, delta: int, sign: int,
                   red: _Reducers, cache: dict, r: int) -> None:
    """Add sign times the remainder on division by red of the packed
    terms of tail, each shifted by delta, into out.  The remainder is
    summed from the remainders of the monomials in cache, so it is the
    remainder that dividing largest term first would leave."""
    for e, c in tail:
        m = e + delta
        nf = cache.get(m)
        if nf is None:
            nf = _monomial_nf(m, red, cache, r)
        c *= sign
        for f, cf in nf.items():
            s = (out.get(f, 0) + c * cf) % r
            if s:
                out[f] = s
            else:
                del out[f]


def reduce(f: Poly, gb: GroebnerBasis) -> Poly:
    """Normal form of f modulo the ideal of gb.

    The remainder on division by a Groebner basis is canonical, so the
    result is zero exactly for ideal members.
    """
    if f.ring != gb.ring:
        raise ValueError("f and the basis live in different rings")
    red, r = gb._red, f.ring.field.r
    rem: dict = {}
    _add_remainder(rem, _packed(f, red.lay).items(), 0, 1, red, {}, r)
    return _unpacked(f.ring, rem, red.lay)


def buchberger(gens: Iterable[Poly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    When the monic generators are pure-difference quadrics with
    distinct leads, one degree-3 count (``_is_quadric_basis``) can
    prove them a basis already; then no S-pair is queued and they are
    only tail-reduced.  Otherwise, and whenever the count falls short,
    an S-pair is queued only when its leads share a variable (the
    product criterion), and when an element is installed only its first
    partner of each distinct lcm is queued (Gebauer-Moeller criterion
    F).  PAIR_CAP and pairs_processed count the queued pairs, each
    reduced once, so pairs_processed is 0 when the count decides;
    PairLimitExceeded is raised rather than truncating when PAIR_CAP is
    hit.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    if not isinstance(ring.field, PrimeField):
        raise ValueError("Groebner computation requires prime-field coefficients")
    if any(g.ring != ring for g in gens):
        raise ValueError("polynomials live in different rings")
    r = ring.field.r

    red = _Reducers(ring)
    lay = red.lay
    key = lay.key
    seen = set()
    for g in gens:
        m = _monic(_packed(g, lay), lay, r)
        fs = frozenset(m.items())
        if fs in seen:
            continue
        seen.add(fs)
        red.add_monic(m)

    heap: list = []
    counter = 0

    def push_pairs(i: int) -> None:
        # product criterion: a pair whose leads share no variable reduces
        # to zero, so only the partners in i's lead buckets are pushed.
        # criterion F: a partner k whose lcm with i equals that of an
        # earlier partner j is dropped, since lead_j divides that lcm and
        # the pairs (j, k) and (j, i) are treated as well (chain criterion)
        nonlocal counter
        lead = red.lead[i]
        partners = {
            j for v in lay.support(lead) for j in red.buckets[v] if j < i
        }
        lcms = set()
        for j in sorted(partners):
            lcm = lay.lcm(red.lead[j], lead)
            if lcm in lcms:
                continue
            lcms.add(lcm)
            if lcm >> lay.shift > MAX_DEGREE:
                raise ValueError(
                    f"an S-pair of degree {lcm >> lay.shift} exceeds the "
                    f"packed-monomial limit {MAX_DEGREE}"
                )
            counter += 1
            heapq.heappush(heap, (key(lcm), counter, j, i, lcm))

    if not _is_quadric_basis(red, r):
        for i in range(len(red.lead)):
            push_pairs(i)

    # remainders of monomials against the current reducers; cleared
    # whenever a reducer is added, so every entry stays a remainder
    cache: dict = {}
    processed = 0
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        processed += 1
        if processed > PAIR_CAP:
            raise PairLimitExceeded(
                f"S-pair limit {PAIR_CAP} exceeded ({len(red.lead)} basis elements)"
            )
        # the S-polynomial of the monic i and j: the leads cancel, so it
        # is tail_i shifted to lcm minus tail_j shifted to lcm
        rt: dict = {}
        _add_remainder(rt, red.tail[i], lcm - red.lead[i], 1, red, cache, r)
        _add_remainder(rt, red.tail[j], lcm - red.lead[j], -1, red, cache, r)
        if not rt:
            continue
        push_pairs(red.add_monic(_monic(rt, lay, r)))
        cache.clear()

    polys, kept = _reduced(red, cache, r)
    return GroebnerBasis(ring, polys, processed, kept)


def _is_quadric_basis(red: _Reducers, r: int) -> bool:
    """True when the monic reducers G are a Groebner basis of the ideal
    I they generate by one degree-3 count (Traverso, "Hilbert functions
    and the Buchberger algorithm", J. Symb. Comput. 1996); False means
    the count does not apply or does not decide.

    The count applies when every element is a pure difference
    ``lead - tail`` (tail coefficient ``r - 1``) of two degree-2
    monomials and the leads are pairwise distinct.  Two distinct
    degree-2 leads that share a variable have a degree-3 lcm, and the
    product criterion drops every other pair, so every S-pair left lies
    in ``I_3``.  ``I_3`` is spanned by the ``x_v * g``, which are the
    oriented incidence vectors ``e(x_v lead) - e(x_v tail)`` of a graph
    on the degree-3 monomials, so over any field ``dim I_3`` is ``U``,
    the number of edges that join two components when the edges are
    added one by one.  The set ``D`` of the ``x_v * lead`` spans
    ``in(G)_3``, and ``|D| = dim in(G)_3 <= dim in(I)_3 = dim I_3 = U``.
    With equality ``in(G)_3 = in(I)_3``, so the remainder of a degree-3
    S-pair, an element of ``I_3`` on monomials no lead divides, is 0,
    and Buchberger's criterion makes G a Groebner basis.
    """
    lay = red.lay
    s = lay.shift
    leads = red.lead
    if len(set(leads)) < len(leads):
        return False
    for lm, tail in zip(leads, red.tail):
        if (len(tail) != 1 or tail[0][1] != r - 1
                or lm >> s != 2 or tail[0][0] >> s != 2):
            return False
    # the packed x_v: a one in field v and in the degree
    xs = [(1 << (v * FIELD_BITS)) + (1 << s) for v in range(lay.nvars)]
    # comp maps each monomial met to the list of its component, shared
    # by every member; a union moves the shorter list into the longer
    comp: dict = {}
    unions = 0
    for lm, ((t, _),) in zip(leads, red.tail):
        for x in xs:
            a, b = lm + x, t + x
            ca, cb = comp.get(a), comp.get(b)
            if ca is None and cb is None:
                comp[a] = comp[b] = [a, b]
            elif ca is None:
                cb.append(a)
                comp[a] = cb
            elif cb is None:
                ca.append(b)
                comp[b] = ca
            elif ca is cb:
                continue
            else:
                if len(ca) < len(cb):
                    ca, cb = cb, ca
                ca += cb
                for m in cb:
                    comp[m] = ca
            unions += 1
    return len({lm + x for lm in leads for x in xs}) == unions


def _reduced(red: _Reducers, cache: dict, r: int) -> tuple:
    """Minimalize, then replace each tail by its normal form against the
    whole basis: the remainder is canonical, and an element's own lead
    never fires because a lead never divides a smaller term.  Returns
    the polys sorted by leading term and their reducer index."""
    lay = red.lay
    order = sorted(range(len(red.lead)), key=lambda i: lay.key(red.lead[i]))
    kept = _Reducers(red.ring)
    out = []
    for i in order:
        lm = red.lead[i]
        if kept.find(lm) is not None:
            continue
        tail: dict = {}
        _add_remainder(tail, red.tail[i], 0, 1, red, cache, r)
        kept.add(lm, list(tail.items()))
        out.append(_unpacked(red.ring, {lm: 1, **tail}, lay))
    return tuple(out), kept

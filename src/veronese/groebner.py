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
way in (``buchberger``'s generators, a ``GroebnerBasis``'s elements,
``reduce``'s argument) and unpacked once on the way out, so ``Poly``
and every signature here keep dense exponent tuples.  A total degree
above ``MAX_DEGREE`` raises ``ValueError``, both for an input term and
for an S-pair whose lcm would pass it.

Tuned for the binomial ideals that arise here: reducer lookup is indexed
by leading-monomial support, pairs with coprime leading terms are never
queued, and the pair queue is capped so runaway inputs fail loudly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .fields import PrimeField
from .polys import Poly, PolyRing

PAIR_CAP = 200_000  # S-pairs one basis may process
FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1  # the largest value a field holds


class PairLimitExceeded(Exception):
    """Raised when Buchberger would process more S-pairs than allowed."""


class _Layout:
    """Field offsets and masks of the packed monomials in n variables."""

    __slots__ = ("nvars", "shift", "ones", "guards")

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.shift = nvars * FIELD_BITS  # S, the offset of the degree
        self.ones = sum(1 << (i * FIELD_BITS) for i in range(nvars))
        self.guards = self.ones << (FIELD_BITS - 1)  # G

    def pack(self, exps: tuple) -> int:
        d = sum(exps)
        if d > MAX_DEGREE:
            raise ValueError(
                f"total degree {d} exceeds the packed-monomial limit {MAX_DEGREE}"
            )
        m = d
        for x in reversed(exps):
            m = (m << FIELD_BITS) | x
        return m

    def unpack(self, m: int) -> tuple:
        mask = (1 << FIELD_BITS) - 1
        return tuple((m >> (i * FIELD_BITS)) & mask for i in range(self.nvars))

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


def _check_ring(ring: PolyRing, polys) -> None:
    if not isinstance(ring.field, PrimeField):
        raise ValueError("Groebner computation requires prime-field coefficients")
    if any(g.ring != ring for g in polys):
        raise ValueError("polynomials live in different rings")


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
    Its one reducer index is built here and shared by every reduce."""

    ring: PolyRing
    polys: tuple
    pairs_processed: int = 0
    _red: _Reducers = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_ring(self.ring, self.polys)
        red = _Reducers(self.ring)
        for g in self.polys:
            if g.leading()[1] != 1:
                raise ValueError("basis elements must be monic")
            red.add_monic(_packed(g, red.lay))
        object.__setattr__(self, "_red", red)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)


def _normal_form_terms(terms, red: _Reducers, r: int) -> dict:
    """Remainder of packed terms on division by red, largest term first."""
    work = dict(terms)
    remainder: dict = {}
    key, find = red.lay.key, red.find
    lead, tails = red.lead, red.tail
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        i = find(m)
        if i is None:
            remainder[m] = c
            continue
        delta = m - lead[i]
        for eg, cg in tails[i]:
            e = eg + delta
            s = (work.get(e, 0) - c * cg) % r
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return remainder


def reduce(f: Poly, gb: GroebnerBasis) -> Poly:
    """Normal form of f modulo the ideal of gb.

    The remainder on division by a Groebner basis is canonical, so the
    result is zero exactly for ideal members.
    """
    if f.ring != gb.ring:
        raise ValueError("f and the basis live in different rings")
    lay = gb._red.lay
    rem = _normal_form_terms(_packed(f, lay), gb._red, f.ring.field.r)
    return _unpacked(f.ring, rem, lay)


def _s_terms(red: _Reducers, i: int, j: int, lcm: int, r: int) -> dict:
    """S-polynomial of the monic reducers i and j: the leads cancel, so
    it is tail_i shifted to lcm minus tail_j shifted to lcm."""
    di, dj = lcm - red.lead[i], lcm - red.lead[j]
    out = {e + di: c for e, c in red.tail[i]}
    for e, c in red.tail[j]:
        e += dj
        s = (out.get(e, 0) - c) % r
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def buchberger(gens: Iterable[Poly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    S-pairs with coprime leading terms are never queued, so PAIR_CAP
    and pairs_processed count only pairs whose leads share a variable.
    Raises PairLimitExceeded rather than truncating when PAIR_CAP is hit.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    _check_ring(ring, gens)
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
        # to zero, so only the partners in i's lead buckets are pushed
        nonlocal counter
        lead = red.lead[i]
        partners = {
            j for v in lay.support(lead) for j in red.buckets[v] if j < i
        }
        for j in sorted(partners):
            lcm = lay.lcm(red.lead[j], lead)
            if lcm >> lay.shift > MAX_DEGREE:
                raise ValueError(
                    f"an S-pair of degree {lcm >> lay.shift} exceeds the "
                    f"packed-monomial limit {MAX_DEGREE}"
                )
            counter += 1
            heapq.heappush(heap, (key(lcm), counter, j, i, lcm))

    for i in range(len(red.lead)):
        push_pairs(i)

    processed = 0
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        processed += 1
        if processed > PAIR_CAP:
            raise PairLimitExceeded(
                f"S-pair limit {PAIR_CAP} exceeded ({len(red.lead)} basis elements)"
            )
        rt = _normal_form_terms(_s_terms(red, i, j, lcm, r), red, r)
        if not rt:
            continue
        push_pairs(red.add_monic(_monic(rt, lay, r)))

    return GroebnerBasis(ring, _reduced(red, r), processed)


def _reduced(red: _Reducers, r: int) -> tuple:
    """Minimalize, then replace each tail by its normal form against the
    whole basis: the remainder is canonical, and an element's own lead
    never fires because a lead never divides a smaller term."""
    lay = red.lay
    order = sorted(range(len(red.lead)), key=lambda i: lay.key(red.lead[i]))
    kept = _Reducers(red.ring)
    out = []
    for i in order:
        lm = red.lead[i]
        if kept.find(lm) is not None:
            continue
        kept.add(lm, [])
        tail = _normal_form_terms(red.tail[i], red, r)
        out.append(_unpacked(red.ring, {lm: 1, **tail}, lay))
    return tuple(out)

"""Buchberger's algorithm and multivariate division over a prime field.

Tuned for the binomial ideals that arise here: reducer lookup is indexed
by leading-monomial support, pairs with coprime leading terms are never
queued, and the pair queue is capped so runaway inputs fail loudly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

from .fields import PrimeField
from .polys import Poly, PolyRing, mono_div, mono_divides, mono_lcm, mono_mul

DEFAULT_PAIR_CAP = 200_000


class PairLimitExceeded(Exception):
    """Raised when Buchberger would process more S-pairs than allowed."""


class _Reducers:
    """Monic reducers indexed by the variables in their lead term."""

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.lead: list = []
        self.tail: list = []
        self.buckets: list = [[] for _ in range(ring.nvars)]
        self.constant = None  # index of the reducer 1, if any

    def add(self, terms: dict) -> None:
        lm = max(terms, key=self.ring.key)
        tail = [(e, c) for e, c in terms.items() if e != lm]
        idx = len(self.lead)
        self.lead.append(lm)
        self.tail.append(tail)
        support = [i for i, x in enumerate(lm) if x]
        if not support:
            self.constant = idx
        for i in support:
            self.buckets[i].append(idx)

    def find(self, m: tuple):
        if self.constant is not None:
            return self.constant
        seen = set()
        for v, x in enumerate(m):
            if not x:
                continue
            for i in self.buckets[v]:
                if i in seen:
                    continue
                seen.add(i)
                if mono_divides(self.lead[i], m):
                    return i
        return None


def _check_ring(ring: PolyRing, polys) -> None:
    if not isinstance(ring.field, PrimeField):
        raise ValueError("Groebner computation requires prime-field coefficients")
    if any(g.ring != ring for g in polys):
        raise ValueError("polynomials live in different rings")


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
            red.add(g.raw_terms())
        object.__setattr__(self, "_red", red)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)


def _normal_form_terms(terms, red: _Reducers, fld) -> dict:
    work = dict(terms)
    remainder: dict = {}
    key = red.ring.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        i = red.find(m)
        if i is None:
            remainder[m] = c
            continue
        delta = mono_div(m, red.lead[i])
        for eg, cg in red.tail[i]:
            e = mono_mul(eg, delta)
            s = fld.sub(work.get(e, 0), fld.mul(c, cg))
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
    return Poly(f.ring, _normal_form_terms(f.raw_terms(), gb._red, f.ring.field))


def s_polynomial(f: Poly, g: Poly) -> Poly:
    lf, cf = f.leading()
    lg, cg = g.leading()
    lcm = mono_lcm(lf, lg)
    fld = f.ring.field
    mf = Poly(f.ring, {mono_div(lcm, lf): fld.inv(cf)})
    mg = Poly(g.ring, {mono_div(lcm, lg): fld.inv(cg)})
    return mf * f - mg * g


def buchberger(
    gens: Iterable[Poly], *, pair_cap: int = DEFAULT_PAIR_CAP
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    S-pairs with coprime leading terms are never queued, so pair_cap
    and pairs_processed count only pairs whose leads share a variable.
    Raises PairLimitExceeded rather than truncating when pair_cap is hit.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    _check_ring(ring, gens)

    basis: list = []
    red = _Reducers(ring)
    seen = set()
    for g in gens:
        m = g.monic()
        fs = frozenset(m.raw_terms().items())
        if fs in seen:
            continue
        seen.add(fs)
        basis.append(m)
        red.add(m.raw_terms())

    heap: list = []
    counter = 0

    def push_pairs(i: int) -> None:
        # product criterion: a pair whose leads share no variable reduces
        # to zero, so only the partners in i's lead buckets are pushed
        nonlocal counter
        lead = red.lead[i]
        partners = {j for v, x in enumerate(lead) if x for j in red.buckets[v] if j < i}
        for j in sorted(partners):
            counter += 1
            heapq.heappush(heap, (ring.key(mono_lcm(red.lead[j], lead)), counter, j, i))

    for i in range(len(basis)):
        push_pairs(i)

    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        processed += 1
        if processed > pair_cap:
            raise PairLimitExceeded(
                f"S-pair limit {pair_cap} exceeded ({len(basis)} basis elements)"
            )
        s = s_polynomial(basis[i], basis[j])
        rt = _normal_form_terms(s.raw_terms(), red, ring.field)
        if not rt:
            continue
        r = Poly(ring, rt).monic()
        basis.append(r)
        red.add(r.raw_terms())
        push_pairs(len(basis) - 1)

    return GroebnerBasis(ring, _reduced(red), processed)


def _reduced(red: _Reducers) -> tuple:
    """Minimalize, then replace each tail by its normal form against the
    whole basis: the remainder is canonical, and an element's own lead
    never fires because a lead never divides a smaller term."""
    ring = red.ring
    order = sorted(range(len(red.lead)), key=lambda i: ring.key(red.lead[i]))
    kept_leads: list = []
    out = []
    for i in order:
        lm = red.lead[i]
        if any(mono_divides(l, lm) for l in kept_leads):
            continue
        kept_leads.append(lm)
        tail = _normal_form_terms(red.tail[i], red, ring.field)
        out.append(Poly(ring, {lm: 1, **tail}))
    return tuple(out)

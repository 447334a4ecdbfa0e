"""Certified quadric Groebner bases and multivariate division over a
prime field.

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
dense exponent tuples.  A term of total degree above ``MAX_DEGREE``
raises ``ValueError``.

``buchberger`` computes no S-pair.  It accepts pure-difference quadrics
with distinct leads that one count of the ideal's dimension in degree 3
proves a Groebner basis, such as the star quadrics (already the reduced
basis: Sturmfels' sorting basis), tail-reduces them and refuses every
other input.  Tails and ``reduce``'s argument are reduced term by term
from a cache of monomial normal forms, so each monomial is divided once
per cache; ``reduce`` starts a new cache at every call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .fields import PrimeField
from .polys import Poly, PolyRing

FIELD_BITS = 16
# the struct code of an unsigned int FIELD_BITS wide, for pack and unpack
_FIELD_CODE = {8: "B", 16: "H", 32: "I", 64: "Q"}[FIELD_BITS]
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1  # the largest value a field holds


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


@lru_cache(maxsize=None)
def _layout(nvars: int) -> _Layout:
    return _Layout(nvars)


class _Reducers:
    """Monic reducers as packed (lead, tail) pairs, each lead of
    positive degree.  ``first`` lists each under the lowest variable of
    its lead, so ``find`` tests every candidate once and returns the
    divisor that comes first by (lowest lead variable, insertion
    index)."""

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.lay = _layout(ring.nvars)
        self.lead: list = []
        self.tail: list = []
        self.first: list = [[] for _ in range(ring.nvars)]

    def add(self, lm: int, tail: list) -> None:
        # the lowest set bit of lm lies in its lowest nonzero field
        self.first[((lm & -lm).bit_length() - 1) // FIELD_BITS].append(len(self.lead))
        self.lead.append(lm)
        self.tail.append(tail)

    def find(self, m: int):
        # walks m's nonzero fields, lowest first, and stops at the first
        # divisor; nz holds the guards of the fields not yet walked
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


def _monic(terms: dict, lay: _Layout, r: int) -> tuple:
    """(lead, tail) of the packed terms scaled to lead coefficient 1."""
    lm = max(terms, key=lay.key)
    inv = pow(terms[lm], -1, r)
    return lm, tuple((e, c * inv % r) for e, c in terms.items() if e != lm)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, tail-reduced, sorted by leading term.
    Built only by ``buchberger``, which hands over the reducer index it
    has already built as ``_red``; every reduce shares it.
    ``pairs_processed`` counts S-pairs reduced, and is always 0."""

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


def _remainder(terms, red: _Reducers, cache: dict, r: int) -> dict:
    """The remainder on division by red of the packed terms.  It is
    summed from the remainders of the monomials in cache, so it is the
    remainder that dividing largest term first would leave."""
    out: dict = {}
    for m, c in terms:
        nf = cache.get(m)
        if nf is None:
            nf = _monomial_nf(m, red, cache, r)
        for f, cf in nf.items():
            s = (out.get(f, 0) + c * cf) % r
            if s:
                out[f] = s
            else:
                del out[f]
    return out


def reduce(f: Poly, gb: GroebnerBasis) -> Poly:
    """Normal form of f modulo the ideal of gb.

    The remainder on division by a Groebner basis is canonical, so the
    result is zero exactly for ideal members.
    """
    if f.ring != gb.ring:
        raise ValueError("f and the basis live in different rings")
    red, r = gb._red, f.ring.field.r
    rem = _remainder(_packed(f, red.lay).items(), red, {}, r)
    return _unpacked(f.ring, rem, red.lay)


def buchberger(gens: Iterable[Poly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens, proved
    without S-pairs.

    The nonzero gens are made monic and deduplicated; they must be
    pure-difference quadrics ``lead - tail`` with distinct leads that
    the degree-3 count of ``_is_quadric_basis`` proves a basis, and are
    then only tail-reduced.  Any other input raises ``ValueError``.
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

    lay = _layout(ring.nvars)
    monic: dict = {}  # (lead, tail set) -> tail, in input order
    for g in gens:
        lm, tail = _monic(_packed(g, lay), lay, r)
        monic.setdefault((lm, frozenset(tail)), tail)
    leads = [lm for lm, _ in monic]
    tails = list(monic.values())
    if not _is_quadric_basis(leads, tails, lay, r):
        raise ValueError(
            "the generators are not pure-difference quadrics with distinct "
            "leads that the degree-3 count proves a Groebner basis"
        )
    red = _Reducers(ring)
    for lm, tail in zip(leads, tails):
        red.add(lm, tail)
    polys, kept = _reduced(red, r)
    return GroebnerBasis(ring, polys, 0, kept)


def _is_quadric_basis(leads: list, tails: list, lay: _Layout, r: int) -> bool:
    """True when the monic elements G, packed leads with their tails,
    are proved a Groebner basis of the ideal I they generate by one
    degree-3 count (Traverso, "Hilbert functions and the Buchberger
    algorithm", J. Symb. Comput. 1996); False means the count does not
    apply or does not decide.

    The count applies when every element is a pure difference
    ``lead - tail`` (tail coefficient ``r - 1``) of two degree-2
    monomials and the leads are pairwise distinct.  Two distinct
    degree-2 leads that share a variable have a degree-3 lcm, and an
    S-pair of coprime leads reduces to 0 (the product criterion), so
    every S-pair left lies in ``I_3``.  ``I_3`` is spanned by the
    ``x_v * g``, which are the oriented incidence vectors
    ``e(x_v lead) - e(x_v tail)`` of a graph on the degree-3 monomials,
    so over any field ``dim I_3`` is ``U``, the number of edges that
    join two components when the edges are added one by one.  The set
    ``D`` of the ``x_v * lead`` spans ``in(G)_3``, and
    ``|D| = dim in(G)_3 <= dim in(I)_3 = dim I_3 = U``.
    With equality ``in(G)_3 = in(I)_3``, so the remainder of a degree-3
    S-pair, an element of ``I_3`` on monomials no lead divides, is 0,
    and Buchberger's criterion makes G a Groebner basis.
    """
    s = lay.shift
    if len(set(leads)) < len(leads):
        return False
    for lm, tail in zip(leads, tails):
        if (len(tail) != 1 or tail[0][1] != r - 1
                or lm >> s != 2 or tail[0][0] >> s != 2):
            return False
    # the packed x_v: a one in field v and in the degree
    xs = [(1 << (v * FIELD_BITS)) + (1 << s) for v in range(lay.nvars)]
    # comp maps each monomial met to the list of its component, shared
    # by every member; a union moves the shorter list into the longer
    comp: dict = {}
    unions = 0
    for lm, ((t, _),) in zip(leads, tails):
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


def _reduced(red: _Reducers, r: int) -> tuple:
    """Replace each tail by its normal form against the whole basis: the
    remainder is canonical, and an element's own lead never fires
    because a lead never divides a smaller term.  The leads are distinct
    and of degree 2, so none divides another and the basis is already
    minimal.  Returns the polys sorted by leading term and their
    reducer index."""
    lay = red.lay
    order = sorted(range(len(red.lead)), key=lambda i: lay.key(red.lead[i]))
    kept = _Reducers(red.ring)
    cache: dict = {}
    out = []
    for i in order:
        lm = red.lead[i]
        tail = _remainder(red.tail[i], red, cache, r)
        kept.add(lm, list(tail.items()))
        out.append(_unpacked(red.ring, {lm: 1, **tail}, lay))
    return tuple(out), kept

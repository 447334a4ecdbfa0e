"""Sparse multivariate polynomials with exact coefficients.

Variables are arbitrary sortable, hashable ids; in this package they are
weakly increasing index tuples such as (1, 2).  A ring fixes the variable
list (sorted ascending; the first-listed variable is largest in the
degrevlex term order), and polynomials store terms as a dict from dense
exponent tuples to nonzero coefficients.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import compress
from operator import neg

from .fields import IntegerRing, PrimeField

Exponents = tuple  # dense exponent tuple aligned with PolyRing.variables


def variable_name(v) -> str:
    """Render a variable id: x12 for small index tuples, x{10,11} beyond."""
    if isinstance(v, tuple):
        if all(isinstance(i, int) and 0 <= i <= 9 for i in v):
            return "x" + "".join(str(i) for i in v)
        return "x{" + ",".join(str(i) for i in v) + "}"
    return str(v)


def _degrevlex_key(exps: Exponents):
    """Sort key: key(a) > key(b) iff monomial a > monomial b."""
    # graded, ties broken so the last differing exponent decides reversed
    return (sum(exps), tuple(map(neg, reversed(exps))))


class PolyRing:
    """Polynomial ring over a PrimeField or the integers.

    Variables are stored sorted ascending and the degrevlex term order
    treats the first-listed variable as the largest.
    """

    __slots__ = ("field", "variables", "names", "_pos")

    key = staticmethod(_degrevlex_key)

    def __init__(self, field, variables: Iterable):
        vs = tuple(sorted(variables))
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable ids")
        if not vs:
            raise ValueError("need at least one variable")
        self.field = field
        self.variables = vs
        self.names = tuple(map(variable_name, vs))
        self._pos = {v: i for i, v in enumerate(vs)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def position(self, v) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise ValueError(f"unknown variable id {v!r}") from None

    def exps_of(self, pairs: Mapping | Iterable) -> Exponents:
        """Dense exponent tuple from (variable, exponent) pairs."""
        # dict answers at once; the abc check is the slower fallback
        if isinstance(pairs, (dict, Mapping)):
            pairs = pairs.items()
        e = [0] * self.nvars
        for v, x in pairs:
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"bad exponent {x!r} for {v!r}")
            e[self.position(v)] += x
        return tuple(e)

    def poly(self, terms: Mapping) -> "Poly":
        """Polynomial from {exps|pairs: coefficient}."""
        acc: dict = {}
        norm = self.field.normalize
        for m, c in terms.items():
            if isinstance(m, tuple) and len(m) == self.nvars and all(
                isinstance(x, int) for x in m
            ):
                if min(m) < 0:
                    raise ValueError(f"negative exponent in {m!r}")
                exps = m
            else:
                exps = self.exps_of(m)
            c = norm(acc.get(exps, 0) + c)
            if c:
                acc[exps] = c
            else:
                acc.pop(exps, None)
        return Poly(self, acc)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def with_field(self, field) -> "PolyRing":
        """The same variables over another coefficient ring, sharing the
        sorted variable tuple, names and position index instead of
        rebuilding them."""
        ring = PolyRing.__new__(PolyRing)
        ring.field = field
        ring.variables = self.variables
        ring.names = self.names
        ring._pos = self._pos
        return ring

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
        )

    def __hash__(self) -> int:
        return hash((self.field, self.variables))

    def __repr__(self) -> str:
        return f"PolyRing({self.field!r}, {len(self.variables)} vars)"


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def mono_support(exps: Exponents) -> list:
    """(position, exponent) pairs of the nonzero exponents, ascending."""
    return [(i, exps[i]) for i in compress(range(len(exps)), exps)]


def pair_exponents(nvars: int, i: int, j: int) -> Exponents:
    """Dense exponent tuple of x_i * x_j, by positions in the ring."""
    e = [0] * nvars
    e[i] += 1
    e[j] += 1
    return tuple(e)


def monomial_text(ring: PolyRing, exps: Exponents) -> str:
    parts = [
        name if e == 1 else f"{name}^{e}"
        for name, e in compress(zip(ring.names, exps), exps)
    ]
    return "*".join(parts) if parts else "1"


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self._terms = terms

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def raw_terms(self) -> dict:
        return self._terms

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if other.ring != self.ring:
            a, b = self.ring.field, other.ring.field
            if a != b:
                raise ValueError(f"mixed-modulus operands rejected: {a!r} vs {b!r}")
            raise ValueError("operands live in different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        norm = self.ring.field.normalize
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = norm(out.get(e, 0) + c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        norm = self.ring.field.normalize
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = norm(out.get(e, 0) - c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        norm = self.ring.field.normalize
        return Poly(self.ring, {e: norm(-c) for e, c in self._terms.items()})

    def __mul__(self, other: Poly | int) -> "Poly":
        norm = self.ring.field.normalize
        if isinstance(other, int):
            c0 = norm(other)
            if not c0:
                return self.ring.zero()
            out = {}
            for e, c in self._terms.items():
                cc = norm(c * c0)
                if cc:
                    out[e] = cc
            return Poly(self.ring, out)
        self._check(other)
        out: dict = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = mono_mul(ea, eb)
                s = norm(out.get(e, 0) + ca * cb)
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    # -- maps ---------------------------------------------------------

    def map_field(self, field) -> "Poly":
        """Reduce coefficients into another coefficient ring."""
        ring = self.ring.with_field(field)
        out = {}
        for e, c in self._terms.items():
            cc = field.normalize(c)
            if cc:
                out[e] = cc
        return Poly(ring, out)

    def evaluate(self, values: Sequence[int] | Mapping) -> int:
        """Value at a point; values indexed like ring.variables or by id."""
        if isinstance(values, (dict, Mapping)):
            vals = [values[v] for v in self.ring.variables]
        else:
            vals = list(values)
            if len(vals) != self.ring.nvars:
                raise ValueError("wrong number of coordinates")
        total = 0
        for e, c in self._terms.items():
            t = c
            for i, k in mono_support(e):
                t *= vals[i] ** k
            total += t
        return self.ring.field.normalize(total)

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and other.ring == self.ring
            and other._terms == self._terms
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Canonical rendering, terms descending in the ring order."""
        if not self._terms:
            return "0"
        out = []
        signed = isinstance(self.ring.field, IntegerRing)
        for e in sorted(self._terms, key=self.ring.key, reverse=True):
            c = self._terms[e]
            mono = monomial_text(self.ring, e)
            minus = signed and c < 0
            mag = -c if minus else c
            body = mono if mag == 1 and mono != "1" else (
                str(mag) if mono == "1" else f"{mag}*{mono}"
            )
            if not out:
                out.append(f"-{body}" if minus else body)
            else:
                out.append(f"- {body}" if minus else f"+ {body}")
        return " ".join(out)


def frobenius_power(f: Poly, p: int, k: int) -> Poly:
    """f^(p^k) computed termwise; valid precisely in characteristic p."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a nonnegative integer")
    field = f.ring.field
    if field != PrimeField(p):
        raise ValueError(f"characteristic mismatch: ring is over {field!r}, Frobenius wants {p}")
    if k == 0:
        return f
    q = p**k
    out = {}
    for e, c in f.raw_terms().items():
        ee = tuple(x * q for x in e)
        out[ee] = pow(c, q, p)
    return Poly(f.ring, out)

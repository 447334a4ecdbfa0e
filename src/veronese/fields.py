"""Coefficient rings: prime fields F_r and the ring of integers.

Elements are plain Python ints.  The polynomial layer computes with
them directly and passes each result to the ring's one method,
``normalize``: a prime field reduces it into range(r), the integers keep
it as it is.  Code that needs a modulus reads ``PrimeField.r``.
"""

from __future__ import annotations


def is_prime(m: int) -> bool:
    """Trial-division primality test, adequate for desk-scale moduli."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Arithmetic modulo a prime r, elements represented in range(r)."""

    __slots__ = ("r",)

    def __init__(self, r: int):
        if not isinstance(r, int) or not is_prime(r):
            raise ValueError(f"modulus {r!r} is not prime")
        self.r = r

    def normalize(self, c: int) -> int:
        return c % self.r

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.r == self.r

    def __hash__(self) -> int:
        return hash(("PrimeField", self.r))

    def __repr__(self) -> str:
        return f"F_{self.r}"


class IntegerRing:
    """Exact integer coefficients for the generators and the telescoping
    identities, never for Groebner arithmetic.  Formal derivatives over
    them live only in the tests, as the Jacobian's oracle."""

    __slots__ = ()

    def normalize(self, c: int) -> int:
        return c

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerRing)

    def __hash__(self) -> int:
        return hash("IntegerRing")

    def __repr__(self) -> str:
        return "Z"


ZZ = IntegerRing()

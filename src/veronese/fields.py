"""Coefficient rings: prime fields F_r and the ring of integers.

Elements are plain Python ints.  The polynomial layer computes with
them directly and passes each result to the ring's one method,
``normalize``: a prime field reduces it into range(r), the integers keep
it as it is.  Code that needs a modulus reads ``PrimeField.r``.
"""

from __future__ import annotations


# the first 13 primes: a strong probable prime to all of them is prime
# below MR_BOUND, the least strong pseudoprime to these bases
# (Sorenson and Webster, Math. Comp. 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin test over MR_BASES, exact for
    m < MR_BOUND.  A multiple of a base is decided by trial division at
    any size; any other m >= MR_BOUND raises ValueError."""
    if m < 2:
        return False
    for b in MR_BASES:
        if m % b == 0:
            return m == b
    if m >= MR_BOUND:
        raise ValueError(f"{m} is past {MR_BOUND}, the bound of the primality test")
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
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

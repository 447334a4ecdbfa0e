"""Cohomology of a cyclic group of prime-power order q acting on Z/q by
multiplication.

With D = a - 1 and the norm Nm = 1 + a + ... + a^(q-1), the standard
2-periodic resolution gives H^0 = ker D and, in alternation, ker Nm/im D
and ker D/im Nm.  On Z/q the kernel of multiplication by m has order
gcd(m, q) and its image has order q/gcd(m, q), so every order is a gcd
expression; the table is filled by 2-periodicity above degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, log2

from .fields import MR_BASES, is_prime

# highest degree a table is filled to; the orders repeat with period 2,
# so a longer table says nothing new and only costs memory
MAX_DEGREE = 1_000


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by integer Newton steps from above: a
    start within 10^-6 of the root, from log2 (exact to far less), when
    the root fits a float, else the power of two above it."""
    e = log2(m) / k
    x = int(2**e * (1 + 1e-6)) + 1 if e < 1000 else 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_split(q: int) -> tuple:
    """(p, h) with q = p^h; rejects non prime powers.  When a base b of
    the primality test divides q, q is a prime power only as a power of
    b.  Otherwise every prime factor of q is at least 43, the least
    prime past the bases, so a q that is an m-th power has m at most
    log_43(q).  Only prime exponents k are tried, in increasing order:
    while q is a k-th power it is replaced by its k-th root and k goes
    into h, and a q with no k-th root for a prime k has none for a
    multiple of k.  What is left is p, and q is a prime power when p is
    prime; q past the primality test's bound raises ValueError unless
    it is a power of a smaller prime."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    for b in MR_BASES:
        if q % b == 0:
            h = round(log2(q) / log2(b))
            if b**h == q:
                return b, h
            raise ValueError(f"{q} is not a prime power")
    p, h, k = q, 1, 2
    while k <= p.bit_length() / log2(43):
        m = _iroot(p, k)
        if m**k == p:
            p, h = m, h * k
        else:
            k += 1
            while not is_prime(k):
                k += 1
    if is_prime(p):
        return p, h
    raise ValueError(f"{q} is not a prime power")


@dataclass(frozen=True)
class CyclicAction:
    """Generator acts on Z/q as multiplication by a, with a^q = 1."""

    q: int
    a: int

    def __post_init__(self):
        prime_power_split(self.q)  # rejects q that is not a prime power
        a = self.a
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"a must lie in 0..{self.q - 1}, got {a!r}")
        if gcd(a, self.q) != 1:
            raise ValueError(f"a={a} is not a unit mod {self.q}")
        if pow(a, self.q, self.q) != 1:
            raise ValueError(
                f"a={a} does not satisfy the order relation a^{self.q} = 1 mod {self.q}"
            )

    @property
    def p(self) -> int:
        return prime_power_split(self.q)[0]

    def difference(self) -> int:
        return (self.a - 1) % self.q

    def norm(self) -> int:
        """1 + a + ... + a^(q-1) mod q: (a^q - 1)/(a - 1), read modulo
        q*(a - 1) to stay exact, and q ones, so 0, when a = 1."""
        m = self.q * (self.a - 1)
        return (pow(self.a, self.q, m) - 1) % m // (self.a - 1) if m else 0


def admissible_multipliers(q: int) -> tuple:
    """All a with gcd(a, q) = 1 and a^q = 1 mod q."""
    prime_power_split(q)
    return tuple(
        a for a in range(1, q) if gcd(a, q) == 1 and pow(a, q, q) == 1
    )


@dataclass(frozen=True)
class CohomologyTable:
    action: CyclicAction
    orders: tuple  # orders[i] = |H^i|, i = 0..i_max
    difference: int
    norm: int

    def as_dict(self) -> dict:
        return {i: o for i, o in enumerate(self.orders)}


def cohomology_orders(action: CyclicAction, i_max: int = 6) -> CohomologyTable:
    """Orders of H^0..H^i_max; degrees >= 1 repeat with period 2."""
    if i_max < 0:
        raise ValueError("i_max must be nonnegative")
    if i_max > MAX_DEGREE:
        raise ValueError(f"i_max = {i_max} exceeds the cap {MAX_DEGREE}")
    q = action.q
    d = action.difference()
    # nm*d = 0 mod q: nm*d = a^q - 1 (d = 0 when a = 1), and CyclicAction has a^q = 1 mod q
    nm = action.norm()
    ker_d = gcd(d, q)
    ker_nm = gcd(nm, q)
    im_d = q // ker_d
    im_nm = q // ker_nm
    h_odd = ker_nm // im_d
    h_even = ker_d // im_nm
    orders = [ker_d]
    for i in range(1, i_max + 1):
        orders.append(h_odd if i % 2 else h_even)
    return CohomologyTable(action, tuple(orders), d, nm)


def invariant_element(action: CyclicAction) -> int:
    """Class of p^(h-1), fixed by the action since a = 1 mod p."""
    p, h = prime_power_split(action.q)
    return p ** (h - 1) % action.q

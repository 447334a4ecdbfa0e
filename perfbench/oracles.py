"""Seeded input generators and independent answers for checking outputs.

Everything here is plain Python over the index-tuple conventions the
README documents (weakly increasing q-tuples over 1..n, ascending
lexicographic order); nothing is imported from veronese, so a bug in
the program cannot hide itself by also breaking its own check.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, gcd


@lru_cache(maxsize=None)
def tuples(n: int, q: int) -> tuple:
    return tuple(combinations_with_replacement(range(1, n + 1), q))


def exponent(t, n: int) -> tuple:
    a = [0] * n
    for i in t:
        a[i - 1] += 1
    return tuple(a)


@lru_cache(maxsize=None)
def content_groups(n: int, q: int) -> tuple:
    """Degree-2 monomials x_t x_u (t <= u) grouped by content."""
    ts = tuples(n, q)
    groups: dict = {}
    for i, t in enumerate(ts):
        for u in ts[i:]:
            c = tuple(x + y for x, y in zip(exponent(t, n), exponent(u, n)))
            groups.setdefault(c, []).append((t, u))
    return tuple(tuple(g) for g in groups.values())


def star_count(n: int, q: int) -> int:
    """Quadrics with one leader per content class."""
    return sum(len(g) - 1 for g in content_groups(n, q))


def full_count(n: int, q: int) -> int:
    return sum(comb(len(g), 2) for g in content_groups(n, q))


def monomial_content(mono, n: int) -> tuple:
    """Content of a monomial given as [[index tuple, exponent], ...]."""
    total = [0] * n
    for t, e in mono:
        for i in t:
            total[i - 1] += e
    return tuple(total)


@lru_cache(maxsize=None)
def image_points(n: int, q: int, r: int) -> frozenset:
    exps = [exponent(t, n) for t in tuples(n, q)]
    return frozenset(
        tuple(_mono_value(u, a, r) for a in exps)
        for u in product(range(r), repeat=n)
    )


def _mono_value(u, a, r: int) -> int:
    v = 1
    for x, e in zip(u, a):
        if e:
            v = v * pow(x, e, r) % r
    return v


def certificate_zero_count(n: int, q: int, r: int) -> int:
    """|Zero(x_t^q - prod_j x_pure(j)^a_j(t))(F_r)|, fibred over the pure
    coordinates: each non-pure x_t independently solves x^q = c_t."""
    roots = Counter(pow(x, q, r) for x in range(r))
    nonpure = [exponent(t, n) for t in tuples(n, q) if len(set(t)) > 1]
    total = 0
    for c in product(range(r), repeat=n):
        ways = 1
        for a in nonpure:
            ways *= roots[_mono_value(c, a, r)]
            if not ways:
                break
        total += ways
    return total


def ideal_zero_count(n: int, q: int, r: int) -> int:
    """Zero set of the quadratic ideal; only (n, q) = (2, 2) is needed:
    x11*x22 = x12^2 has 2r-1 points with x12 = 0 and (r-1)^2 others."""
    if (n, q) != (2, 2):
        raise ValueError("ideal zero count is only known here for (n, q) = (2, 2)")
    return r * r


def on_certificate_zero_set(w, n: int, q: int, r: int) -> bool:
    ts = tuples(n, q)
    pure = [w[ts.index((j,) * q)] for j in range(1, n + 1)]
    return all(
        pow(x, q, r) == _mono_value(pure, exponent(t, n), r)
        for t, x in zip(ts, w)
        if len(set(t)) > 1
    )


def on_ideal_zero_set(w, n: int, q: int, r: int) -> bool:
    pos = {t: i for i, t in enumerate(tuples(n, q))}
    for group in content_groups(n, q):
        values = {w[pos[t]] * w[pos[u]] % r for t, u in group}
        if len(values) > 1:
            return False
    return True


def right_blocks(blocks, sigma, q: int) -> tuple:
    seq = [i for b in blocks for i in b]
    scrambled = [seq[j - 1] for j in sigma]
    return tuple(
        tuple(sorted(scrambled[k * q:(k + 1) * q])) for k in range(len(blocks))
    )


def type_star(rng, n: int, q: int) -> tuple:
    """(blocks, sigma) of a nonzero type-star binomial with 2 or 3 blocks."""
    while True:
        s = rng.randint(2, 3)
        blocks = tuple(
            tuple(sorted(rng.choices(range(1, n + 1), k=q))) for _ in range(s)
        )
        sigma = tuple(rng.sample(range(1, s * q + 1), s * q))
        if Counter(blocks) != Counter(right_blocks(blocks, sigma, q)):
            return blocks, sigma


def unequal_pair(rng, n: int, q: int) -> tuple:
    """Two degree-2 monomials ((t, u), (v, w)) of different content."""
    ts = tuples(n, q)
    while True:
        a = tuple(sorted(rng.sample(ts, 2)))
        b = tuple(sorted(rng.sample(ts, 2)))
        if monomial_content([(a[0], 1), (a[1], 1)], n) != monomial_content(
            [(b[0], 1), (b[1], 1)], n
        ):
            return a, b


def _mono_key(mono) -> tuple:
    """Canonical form of [[index tuple, exponent], ...]."""
    acc: Counter = Counter()
    for t, e in mono:
        acc[tuple(t)] += e
    return tuple(sorted((t, e) for t, e in acc.items() if e))


def binomial_terms(obj) -> Counter:
    """{monomial: coefficient} of a JSON binomial over the integers."""
    terms: Counter = Counter()
    for m in obj["plus"]:
        terms[_mono_key(m)] += 1
    for m in obj["minus"]:
        terms[_mono_key(m)] -= 1
    return Counter({m: c for m, c in terms.items() if c})


def rewrite_expansion(steps) -> Counter:
    """Sum of sign * cofactor * quadratic over the JSON rewrite steps."""
    total: Counter = Counter()
    for st in steps:
        cof = list(st["cofactor"])
        for mono, coeff in binomial_terms(st["quadratic"]).items():
            total[_mono_key(cof + [list(x) for x in mono])] += st["sign"] * coeff
    return Counter({m: c for m, c in total.items() if c})


def block_binomial(blocks, sigma, q: int) -> Counter:
    left = _mono_key([(b, 1) for b in blocks])
    right = _mono_key([(b, 1) for b in right_blocks(blocks, sigma, q)])
    return Counter({left: 1, right: -1})


def cohomology_orders(q: int, a: int, i_max: int) -> list:
    """|H^i| of the cyclic group of order q acting on Z/q through a,
    from kernels and images of D = a - 1 and the norm."""
    d = (a - 1) % q
    nm = sum(pow(a, i, q) for i in range(q)) % q
    ker_d = sum(1 for x in range(q) if d * x % q == 0)
    ker_nm = sum(1 for x in range(q) if nm * x % q == 0)
    im_d = len({d * x % q for x in range(q)})
    im_nm = len({nm * x % q for x in range(q)})
    return [ker_d] + [
        ker_nm // im_d if i % 2 else ker_d // im_nm for i in range(1, i_max + 1)
    ]


def admissible_multipliers(q: int) -> list:
    return [a for a in range(1, q) if gcd(a, q) == 1 and pow(a, q, q) == 1]

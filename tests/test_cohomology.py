from math import gcd

import pytest
import sympy

import oracles

from veronese import CyclicAction, cohomology, cohomology_orders
from veronese.cohomology import (
    MAX_DEGREE,
    admissible_multipliers,
    invariant_element,
    prime_power_split,
)


def test_prime_power_split():
    assert prime_power_split(2) == (2, 1)
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(9) == (3, 2)
    assert prime_power_split(27) == (3, 3)
    # p is the integer h-th root of q, tested by Miller-Rabin, so a large
    # prime q, or a power of one, answers at once
    assert prime_power_split(10_000_019) == (10_000_019, 1)
    assert prime_power_split(2**40) == (2, 40)
    assert prime_power_split(10**18 + 3) == (10**18 + 3, 1)
    assert prime_power_split((10**9 + 7) ** 2) == (10**9 + 7, 2)
    assert prime_power_split(3**500) == (3, 500)
    for bad in (1, 6, 12, 0, -4, 2**40 * 3, (10**9 + 7) * (10**9 + 9), 10**18 + 1):
        with pytest.raises(ValueError):
            prime_power_split(bad)
    # past the primality test's bound, only a power of a smaller prime answers
    with pytest.raises(ValueError, match="bound of the primality test"):
        prime_power_split(2**89 - 1)
    # a q with a factor below 43 is a prime power only as a power of it,
    # at any size; past that, h is at most log_43(q)
    assert prime_power_split(41**300) == (41, 300)
    assert prime_power_split(43**2000) == (43, 2000)
    assert prime_power_split(47**3) == (47, 3)
    for bad in (10**25, 10**4000, 2**13000 * 3, 41**300 * 43):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power_split(bad)


def test_prime_power_split_matches_sympy():
    for q in range(2, 5000):
        factors = sympy.factorint(q)
        if len(factors) == 1:
            assert prime_power_split(q) == next(iter(factors.items())), q
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                prime_power_split(q)


def test_prime_power_split_matches_a_sieve():
    # smallest prime factors up to 10^5: q is a prime power exactly when
    # dividing out its smallest prime factor leaves 1
    limit = 10**5
    spf = list(range(limit))
    for d in range(2, int(limit**0.5) + 1):
        if spf[d] == d:
            for m in range(d * d, limit, d):
                if spf[m] == m:
                    spf[m] = d
    for q in range(2, limit):
        p, h, m = spf[q], 0, q
        while m % p == 0:
            m //= p
            h += 1
        if m == 1:
            assert prime_power_split(q) == (p, h), q
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                prime_power_split(q)


def test_prime_power_split_roots_only_prime_exponents(monkeypatch):
    # a 4,000-digit q with no factor below 43 is refused after one root
    # per prime exponent up to log_43(q), not one per exponent
    calls = []
    iroot = cohomology._iroot
    monkeypatch.setattr(cohomology, "_iroot", lambda m, k: calls.append(k) or iroot(m, k))
    with pytest.raises(ValueError, match="bound of the primality test"):
        prime_power_split(10**4000 + 1)
    assert 0 < len(calls) < 400
    assert all(sympy.isprime(k) for k in calls)
    # a composite exponent is taken apart into its prime factors; a power
    # of a composite is refused under its own name
    assert prime_power_split(53**210) == (53, 210)
    assert prime_power_split((10**9 + 7) ** 6) == (10**9 + 7, 6)
    with pytest.raises(ValueError, match=f"{(43 * 47) ** 6} is not a prime power"):
        prime_power_split((43 * 47) ** 6)


def test_admissible_multipliers_frozen():
    assert admissible_multipliers(2) == (1,)
    assert admissible_multipliers(3) == (1,)
    assert admissible_multipliers(4) == (1, 3)
    assert admissible_multipliers(8) == (1, 3, 5, 7)
    assert admissible_multipliers(9) == (1, 4, 7)


def test_action_validation():
    with pytest.raises(ValueError):
        CyclicAction(9, 3)  # not a unit
    with pytest.raises(ValueError):
        CyclicAction(9, 2)  # unit but 2^9 = 8 mod 9
    with pytest.raises(ValueError):
        CyclicAction(4, 4)  # out of range
    act = CyclicAction(9, 4)
    assert act.p == 3
    assert act.difference() == 3
    assert act.norm() == 0
    # exactly the units with a^q = 1 mod q are accepted
    for q in (4, 8, 9, 16, 25, 27):
        for a in range(q):
            if gcd(a, q) == 1 and pow(a, q, q) == 1:
                assert CyclicAction(q, a).a == a
            else:
                with pytest.raises(ValueError):
                    CyclicAction(q, a)


def test_orders_frozen_tables():
    assert cohomology_orders(CyclicAction(2, 1)).as_dict() == {
        i: 2 for i in range(7)
    }
    assert cohomology_orders(CyclicAction(4, 3)).as_dict() == {
        i: 2 for i in range(7)
    }
    assert cohomology_orders(CyclicAction(8, 5)).as_dict() == {
        i: 4 for i in range(7)
    }
    assert cohomology_orders(CyclicAction(9, 4)).as_dict() == {
        i: 3 for i in range(7)
    }
    assert cohomology_orders(CyclicAction(9, 7)).as_dict() == {
        i: 3 for i in range(7)
    }


def test_orders_match_brute_force_enumeration():
    for q in (2, 3, 4, 8, 9, 16, 27):
        for a in admissible_multipliers(q):
            action = CyclicAction(q, a)
            table = cohomology_orders(action, i_max=8)
            d, nm = table.difference, table.norm
            ker_d = sum(1 for x in range(q) if d * x % q == 0)
            im_d = len({d * x % q for x in range(q)})
            ker_nm = sum(1 for x in range(q) if nm * x % q == 0)
            im_nm = len({nm * x % q for x in range(q)})
            orders = table.as_dict()
            assert orders[0] == ker_d
            for i in range(1, 9):
                assert orders[i] == (ker_nm // im_d if i % 2 else ker_d // im_nm)


def test_orders_equal_and_nontrivial():
    for q in (2, 4, 8, 3, 9):
        for a in admissible_multipliers(q):
            orders = cohomology_orders(CyclicAction(q, a)).as_dict()
            assert len(set(orders.values())) == 1
            assert orders[0] > 1


def test_multipliers_are_one_mod_p():
    for q in (2, 4, 8, 16, 3, 9, 27, 25):
        p, _ = prime_power_split(q)
        for a in admissible_multipliers(q):
            assert a % p == 1


def test_norm_times_difference_vanishes():
    for q in (4, 8, 9, 16, 27):
        for a in admissible_multipliers(q):
            act = CyclicAction(q, a)
            assert act.norm() * act.difference() % q == 0


def test_norm_matches_the_loop():
    # the closed form against the sum taken term by term, on every
    # admissible (q, a) with q <= 1,000
    pairs = 0
    for q in range(2, 1001):
        if len(sympy.primefactors(q)) == 1:
            for a in admissible_multipliers(q):
                assert CyclicAction(q, a).norm() == oracles.cyclic_norm(q, a), (q, a)
                pairs += 1
    assert pairs == 1395


def test_invariant_element():
    assert invariant_element(CyclicAction(2, 1)) == 1
    assert invariant_element(CyclicAction(4, 3)) == 2
    assert invariant_element(CyclicAction(9, 4)) == 3
    act = CyclicAction(8, 5)
    e = invariant_element(act)
    assert e == 4
    assert act.a * e % 8 == e


def test_i_max_respected():
    table = cohomology_orders(CyclicAction(4, 3), i_max=2)
    assert set(table.as_dict()) == {0, 1, 2}
    with pytest.raises(ValueError):
        cohomology_orders(CyclicAction(4, 3), i_max=-1)
    assert len(cohomology_orders(CyclicAction(4, 3), i_max=MAX_DEGREE).orders) == (
        MAX_DEGREE + 1
    )
    with pytest.raises(ValueError, match="exceeds the cap"):
        cohomology_orders(CyclicAction(4, 3), i_max=MAX_DEGREE + 1)

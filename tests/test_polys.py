import random

import pytest
import sympy

import oracles
from veronese.fields import MR_BOUND, ZZ, PrimeField, is_prime
from veronese.polys import PolyRing, frobenius_power, mono_support, variable_name

VARS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def ring_over(field):
    return PolyRing(field, VARS)


def var(ring, v):
    return ring.poly({((v, 1),): 1})


def random_poly(rng, ring, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) if rng.random() < 0.4 else 0
                     for _ in range(len(VARS)))
        terms[exps] = rng.randint(-9, 9)
    return ring.poly(terms)


def test_is_prime_small():
    assert [m for m in range(2, 30) if is_prime(m)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_is_prime_matches_sympy():
    # every m below 10^5, the least strong pseudoprimes to the first k
    # prime bases for k up to 12, and random m up to the test's bound
    assert all(is_prime(m) == sympy.isprime(m) for m in range(-3, 10**5))
    for m in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(m), m
    rng = random.Random(5)
    for bits in range(17, MR_BOUND.bit_length()):
        for _ in range(20):
            m = rng.getrandbits(bits) | 1
            if m < MR_BOUND:
                assert is_prime(m) == sympy.isprime(m), m
    assert is_prime(2**61 - 1) and is_prime(10**18 + 3)
    assert MR_BOUND == 3_317_044_064_679_887_385_961_981
    with pytest.raises(ValueError, match="bound of the primality test"):
        is_prime(MR_BOUND)
    # a multiple of a base is decided by trial division at any size
    assert not is_prime(10**25) and not is_prime(41 * MR_BOUND)
    with pytest.raises(ValueError, match="bound of the primality test"):
        is_prime(43 * MR_BOUND)


def test_prime_field_ops():
    f5 = PrimeField(5)
    assert [f5.normalize(c) for c in (7, -1, 0, 5, -12)] == [2, 4, 0, 0, 3]
    assert f5.r == 5 and f5 == PrimeField(5) and f5 != PrimeField(7)
    assert [ZZ.normalize(c) for c in (7, -1, 0)] == [7, -1, 0]
    with pytest.raises(ValueError):
        PrimeField(6)


def test_variable_names():
    assert variable_name((1, 2)) == "x12"
    assert variable_name((2, 3, 3)) == "x233"
    assert variable_name((1, 10)) == "x{1,10}"


def test_mono_support_lists_the_nonzero_positions():
    rng = random.Random(7)
    for _ in range(50):
        e = tuple(rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(rng.randint(1, 12)))
        assert mono_support(e) == [(i, x) for i, x in enumerate(e) if x]


def test_order_conventions():
    rd = ring_over(PrimeField(5))
    x11x22 = rd.exps_of([((1, 1), 1), ((2, 2), 1)])
    x12sq = rd.exps_of([((1, 2), 2)])
    # graded reverse-lex ranks the squared middle variable higher
    assert rd.key(x12sq) > rd.key(x11x22)
    # degree dominates in degrevlex
    cube = rd.exps_of([((3, 3), 3)])
    assert rd.key(cube) > rd.key(x12sq)


def test_leading_term_text_frozen():
    ring = ring_over(ZZ)
    g = ring.poly({(((1, 1), 1), ((2, 2), 1)): 1, (((1, 2), 2),): -1})
    assert g.text() == "-x12^2 + x11*x22"
    exps, c = oracles.leading(g)
    assert c == -1
    assert exps == ring.exps_of([((1, 2), 2)])


def test_poly_rejects_negative_exponents():
    ring = PolyRing(PrimeField(5), "abc")
    with pytest.raises(ValueError):
        ring.poly({(2, -1, 0): 1, (0, 0, 0): 1})
    with pytest.raises(ValueError):
        ring.poly({(("b", -1),): 1})
    assert ring.poly({(2, 1, 0): 1, (0, 0, 0): 6}).text() == "a^2*b + 1"


def test_ring_axioms_seeded():
    rng = random.Random(3)
    for field in (PrimeField(5), PrimeField(2), ZZ):
        ring = ring_over(field)
        for _ in range(40):
            f, g, h = (random_poly(rng, ring) for _ in range(3))
            assert (f + g) * h == f * h + g * h
            assert f - f == ring.zero()
            assert f * g == g * f
            assert (f + g) + h == f + (g + h)
            assert f * ring.poly({(0,) * len(VARS): 1}) == f
            assert -(-f) == f


def test_evaluate_is_homomorphism():
    rng = random.Random(5)
    field = PrimeField(7)
    ring = ring_over(field)
    for _ in range(30):
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        pt = tuple(rng.randrange(7) for _ in VARS)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt) % field.r
        assert (f + g).evaluate(pt) == (f.evaluate(pt) + g.evaluate(pt)) % field.r


def test_evaluate_mapping_form():
    ring = ring_over(ZZ)
    f = ring.poly({(((1, 1), 2),): 3, (((2, 3), 1),): 1})
    values = {v: 0 for v in VARS}
    values[(1, 1)] = 2
    values[(2, 3)] = 5
    assert f.evaluate(values) == 17


def test_derivative_product_rule():
    rng = random.Random(9)
    ring = ring_over(PrimeField(5))
    for _ in range(25):
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        v = VARS[rng.randrange(len(VARS))]
        lhs = oracles.derivative(f * g, v)
        rhs = oracles.derivative(f, v) * g + f * oracles.derivative(g, v)
        assert lhs == rhs


def test_derivative_frozen():
    ring = ring_over(ZZ)
    f = ring.poly({(((1, 1), 3), ((1, 2), 1)): 2})
    assert oracles.derivative(f, (1, 1)) == ring.poly({(((1, 1), 2), ((1, 2), 1)): 6})
    assert oracles.derivative(f, (3, 3)).is_zero()


def test_monic_and_map_field():
    ring = ring_over(PrimeField(5))
    f = ring.poly({(((1, 1), 1),): 3, (((2, 2), 1),): 1})
    m = oracles.monic(f)
    assert oracles.leading(m)[1] == 1
    assert m * 3 == f
    zz = ring_over(ZZ)
    g = zz.poly({(((1, 1), 1),): 7, (((2, 2), 1),): -1})
    g5 = g.map_field(PrimeField(5))
    assert g5 == ring.poly({(((1, 1), 1),): 2, (((2, 2), 1),): 4})


def test_pow_matches_repeated_multiplication():
    rng = random.Random(13)
    ring = ring_over(PrimeField(3))
    for _ in range(10):
        f = random_poly(rng, ring, max_terms=3, max_exp=2)
        acc = ring.poly({(0,) * len(VARS): 1})
        for k in range(4):
            assert oracles.power(f, k) == acc
            acc = acc * f


def test_frobenius_power_is_termwise():
    rng = random.Random(17)
    for p in (2, 3, 5):
        ring = ring_over(PrimeField(p))
        for _ in range(15):
            f = random_poly(rng, ring, max_terms=3, max_exp=2)
            g = random_poly(rng, ring, max_terms=3, max_exp=2)
            for k in (1, 2):
                assert frobenius_power(f, p, k) == oracles.power(f, p**k)
                assert frobenius_power(f + g, p, k) == frobenius_power(
                    f, p, k
                ) + frobenius_power(g, p, k)


def test_frobenius_power_requires_matching_characteristic():
    ring = ring_over(PrimeField(5))
    f = var(ring, (1, 1))
    with pytest.raises(ValueError):
        frobenius_power(f, 3, 1)
    with pytest.raises(ValueError):
        frobenius_power(var(ring_over(ZZ), (1, 1)), 2, 1)


def test_mixed_ring_operations_rejected():
    f = var(ring_over(PrimeField(5)), (1, 1))
    g = var(ring_over(PrimeField(7)), (1, 1))
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g


def test_unknown_variable_rejected():
    ring = ring_over(ZZ)
    with pytest.raises(ValueError):
        var(ring, (9, 9))

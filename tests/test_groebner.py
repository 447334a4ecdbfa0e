import random

import pytest

import oracles
from conftest import make_params
from veronese import PrimeField, buchberger, index_tuples, reduce
from veronese.combinatorics import integer_ring, polynomial_ring
from veronese.groebner import PairLimitExceeded, s_polynomial
from veronese.toric import generators_over

F5 = PrimeField(5)


def test_reduce_frozen_square_to_product(params321):
    ring = polynomial_ring(params321, F5)
    gens = generators_over(params321, F5)
    x12sq = ring.poly({(((1, 2), 2),): 1})
    nf = reduce(x12sq, list(gens))
    assert nf == ring.poly({(((1, 1), 1), ((2, 2), 1)): 1})


def test_reduce_leaves_normal_forms_fixed(params321):
    gens = list(generators_over(params321, F5))
    ring = polynomial_ring(params321, F5)
    leads = [g.leading()[0] for g in gens]
    rng = random.Random(21)
    from test_polys import random_poly

    for _ in range(30):
        f = ring.poly(
            {
                tuple(rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in leads[0]): rng.randint(0, 4)
                for _ in range(3)
            }
        )
        nf = reduce(f, gens)
        # no term of the normal form is divisible by any leading term
        for e in nf.raw_terms():
            for lm in leads:
                assert not all(a <= b for a, b in zip(lm, e))
        assert reduce(nf, gens) == nf
        # the subtracted part is itself reducible to zero
        assert reduce(f - nf, gens).is_zero()


def test_s_polynomial_frozen(params321):
    ring = polynomial_ring(params321, F5)
    f = ring.poly({(((1, 2), 2),): 1, (((1, 1), 1), ((2, 2), 1)): -1})
    g = ring.poly({(((1, 2), 1), ((1, 3), 1),): 1, (((1, 1), 1), ((2, 3), 1)): -1})
    s = s_polynomial(f, g)
    assert s == ring.poly(
        {
            (((1, 1), 1), ((1, 2), 1), ((2, 3), 1)): 1,
            (((1, 1), 1), ((1, 3), 1), ((2, 2), 1)): -1,
        }
    )


def test_buchberger_matches_sympy(params321):
    gens = list(generators_over(params321, F5))
    gb = buchberger(gens)
    got = oracles.poly_key_set(gb.polys)
    want = oracles.groebner_sympy(gens, index_tuples(params321), 5)
    assert got == want


def test_buchberger_matches_sympy_cubic_veronese():
    params = make_params(2, 3, 1)
    gens = list(generators_over(params, F5))
    gb = buchberger(gens)
    assert oracles.poly_key_set(gb.polys) == oracles.groebner_sympy(
        gens, index_tuples(params), 5
    )


def test_buchberger_idempotent_and_canonical(params321):
    gens = list(generators_over(params321, F5))
    gb1 = buchberger(gens)
    gb2 = buchberger(list(gb1.polys))
    assert gb1.polys == gb2.polys
    rng = random.Random(31)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert buchberger(shuffled).polys == gb1.polys


def test_buchberger_zero_inputs_dropped(params321):
    ring = polynomial_ring(params321, F5)
    gens = [ring.zero(), ring.poly({(((1, 1), 1),): 1})]
    gb = buchberger(gens)
    assert [g.text() for g in gb.polys] == ["x11"]


def test_buchberger_pair_cap():
    params = make_params(3, 2, 2)
    gens = list(generators_over(params, F5))
    with pytest.raises(PairLimitExceeded):
        buchberger(gens, pair_cap=10)


def test_buchberger_rejects_integer_coefficients(params321):
    gens = list(generators_over(params321, integer_ring(params321).field))
    with pytest.raises(ValueError):
        buchberger(gens)


def test_content_equal_products_reduce_to_zero(params321):
    # degree-3 consequences of the quadratic relations vanish mod the basis
    ring = polynomial_ring(params321, F5)
    gb = buchberger(list(generators_over(params321, F5)))
    # all five monomials of content (2,2,2)
    same_content = [
        ring.poly({(((1, 1), 1), ((2, 3), 2)): 1}),
        ring.poly({(((1, 2), 1), ((1, 3), 1), ((2, 3), 1)): 1}),
        ring.poly({(((1, 1), 1), ((2, 2), 1), ((3, 3), 1)): 1}),
        ring.poly({(((1, 2), 2), ((3, 3), 1)): 1}),
        ring.poly({(((1, 3), 2), ((2, 2), 1)): 1}),
    ]
    forms = {reduce(m, gb) for m in same_content}
    assert len(forms) == 1
    for a in same_content:
        for b in same_content:
            assert reduce(a - b, gb).is_zero()


def test_groebner_basis_iterates(params321):
    gb = buchberger(list(generators_over(params321, F5)))
    assert len(gb) == len(list(gb)) == 6

import hashlib
import random
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import GRID_T36, make_params
from veronese import PrimeField, buchberger, index_tuples, reduce
from veronese.combinatorics import integer_ring, polynomial_ring
from veronese.groebner import MAX_DEGREE, _layout, _Reducers
from veronese.polys import Poly, PolyRing, _degrevlex_key
from veronese.toric import generators_over, quadratic_generators

F5 = PrimeField(5)
# the message of every input the degree-3 count does not prove a basis
REFUSED = "degree-3 count"


def test_reduce_frozen_square_to_product(params321):
    ring = polynomial_ring(params321, F5)
    gens = generators_over(params321, F5)
    x12sq = ring.poly({(((1, 2), 2),): 1})
    nf = reduce(x12sq, buchberger(gens))
    assert nf == ring.poly({(((1, 1), 1), ((2, 2), 1)): 1})


def test_reduce_leaves_normal_forms_fixed(params321):
    gens = list(generators_over(params321, F5))
    gb = buchberger(gens)
    ring = polynomial_ring(params321, F5)
    # each generator lead is a multiple of a basis lead, so no term of a
    # normal form is divisible by one
    leads = [oracles.leading(g)[0] for g in gens]
    rng = random.Random(21)
    from test_polys import random_poly

    for _ in range(30):
        f = ring.poly(
            {
                tuple(rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in leads[0]): rng.randint(0, 4)
                for _ in range(3)
            }
        )
        nf = reduce(f, gb)
        # no term of the normal form is divisible by any leading term
        for e in nf.raw_terms():
            for lm in leads:
                assert not all(a <= b for a, b in zip(lm, e))
        assert reduce(nf, gb) == nf
        # the subtracted part is itself reducible to zero
        assert reduce(f - nf, gb).is_zero()


def test_s_polynomial_frozen(params321):
    ring = polynomial_ring(params321, F5)
    f = ring.poly({(((1, 2), 2),): 1, (((1, 1), 1), ((2, 2), 1)): -1})
    g = ring.poly({(((1, 2), 1), ((1, 3), 1),): 1, (((1, 1), 1), ((2, 3), 1)): -1})
    s = oracles.s_polynomial(f, g)
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
    quadric = ring.poly({(((1, 2), 2),): 1, (((1, 1), 1), ((2, 2), 1)): -1})
    gb = buchberger([ring.zero(), quadric, ring.zero()])
    assert [g.text() for g in gb.polys] == ["x12^2 + 4*x11*x22"]
    with pytest.raises(ValueError, match="no nonzero generators"):
        buchberger([ring.zero()])


def _scaled(gens, seed: int) -> list:
    """gens with each variable x_v scaled by a seeded nonzero lambda_v.
    A diagonal scaling keeps every lead and maps a basis to a basis,
    but the monic tails lose the coefficient r - 1, so the degree-3
    count does not apply and buchberger refuses them."""
    ring = gens[0].ring
    r = ring.field.r
    rng = random.Random(seed)
    lam = [rng.randint(1, r - 1) for _ in range(ring.nvars)]

    def weight(e):
        w = 1
        for v, k in enumerate(e):
            w = w * pow(lam[v], k, r) % r
        return w

    return [ring.poly({e: c * weight(e) for e, c in g.raw_terms().items()})
            for g in gens]


def test_count_refuses_scaled_star_sets():
    for nph in ((3, 2, 1), (3, 2, 2), (2, 3, 1), (4, 3, 1)):
        gens = _scaled(list(generators_over(make_params(*nph), F5)), 1)
        with pytest.raises(ValueError, match=REFUSED):
            buchberger(gens)


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


def test_reduce_rejects_a_foreign_ring(params321):
    gb = buchberger(list(generators_over(params321, F5)))
    f = polynomial_ring(params321, PrimeField(7)).poly({(((1, 2), 2),): 1})
    with pytest.raises(ValueError):
        reduce(f, gb)


def test_buchberger_matches_sympy_on_random_ideals():
    # dense random generators are no pure-difference quadrics, and no
    # set is its own sympy basis: buchberger, which computes no S-pair,
    # refuses them all
    params = make_params(2, 2, 1)
    for r, seed in ((5, 1), (5, 2), (7, 3), (7, 4)):
        field = PrimeField(r)
        ring = polynomial_ring(params, field)
        rng = random.Random(seed)
        gens = [
            ring.poly(
                {
                    tuple(rng.randint(0, 2) for _ in range(ring.nvars)): rng.randint(1, r - 1)
                    for _ in range(3)
                }
            )
            for _ in range(3)
        ]
        want = oracles.groebner_sympy(gens, index_tuples(params), r)
        assert want != oracles.poly_key_set(map(oracles.monic, gens))
        with pytest.raises(ValueError, match=REFUSED):
            buchberger(gens)


_GRID_T21 = [nph for nph in GRID_T36 if comb(nph[0] + nph[1] ** nph[2] - 1, nph[1] ** nph[2]) <= 21]
# F_2 matters: there the tail coefficient r - 1 is 1
_COUNT_FIELDS = (2, 3, 5)


def _same_basis(gens) -> bool:
    return oracles.poly_key_set(buchberger(gens).polys) == oracles.poly_key_set(
        oracles.buchberger_textbook(gens)
    )


@pytest.mark.parametrize("nph", _GRID_T21, ids=lambda nph: "%d%d%d" % nph)
def test_buchberger_matches_the_textbook_oracle(nph):
    assert _same_basis(list(generators_over(make_params(*nph), F5)))


@pytest.mark.parametrize("r", (2, 3))
@pytest.mark.parametrize("nph", _GRID_T21, ids=lambda nph: "%d%d%d" % nph)
def test_buchberger_matches_the_textbook_oracle_over_f2_and_f3(nph, r):
    assert _same_basis(list(generators_over(make_params(*nph), PrimeField(r))))


@pytest.mark.parametrize("r", _COUNT_FIELDS)
def test_star_quadrics_are_proved_a_basis_without_pairs(r):
    # the degree-3 count decides every star set with |T| <= 36 and
    # (4,2,2), and its basis is the monic star set; past |T| = 21 the
    # textbook oracle takes from seconds to minutes a set, so the
    # reference there is the Hilbert-function certificate, which shares
    # nothing with the package's count
    field = PrimeField(r)
    for nph in GRID_T36 + [(4, 2, 2)]:
        n, p, h = nph
        gens = generators_over(make_params(*nph), field)
        gb = buchberger(gens)
        assert gb.pairs_processed == 0
        assert oracles.poly_key_set(gb.polys) == oracles.poly_key_set(map(oracles.monic, gens)), nph
        assert oracles.quadric_basis_certified(gb.polys, n, p**h), nph


@pytest.mark.parametrize("r", _COUNT_FIELDS)
def test_count_refuses_star_sets_less_a_generator(r):
    # with one of the six (3,2,1) quadrics dropped, five of the sets are
    # no basis and the textbook oracle grows them, so the count must
    # refuse them; the sixth is a basis, which the count proves
    gens = list(generators_over(make_params(3, 2, 1), PrimeField(r)))
    sizes = []
    for i in range(len(gens)):
        rest = gens[:i] + gens[i + 1:]
        want = oracles.buchberger_textbook(rest)
        sizes.append(len(want))
        if len(want) > len(rest):
            with pytest.raises(ValueError, match=REFUSED):
                buchberger(rest)
        else:
            assert oracles.poly_key_set(buchberger(rest).polys) == oracles.poly_key_set(want), i
    assert sorted(sizes) == [5, 6, 6, 7, 7, 7]


@pytest.mark.parametrize("r", _COUNT_FIELDS)
@pytest.mark.parametrize("nph", [(4, 2, 1), (3, 3, 1), (2, 2, 2)], ids=str)
def test_full_quadric_sets_take_the_pair_loop(nph, r):
    # every pairwise difference of a content group repeats leads, so the
    # count does not apply and buchberger refuses the set
    field = PrimeField(r)
    gens = [g.map_field(field) for g in quadratic_generators(make_params(*nph), full=True)]
    assert len({oracles.leading(g)[0] for g in gens}) < len(gens)
    with pytest.raises(ValueError, match=REFUSED):
        buchberger(gens)


@pytest.mark.parametrize("r", (3, 5, 7))
def test_count_refuses_a_doubled_tail(r):
    # doubling one tail coefficient leaves the degree-3 graph as it is,
    # but the ideal changes and its basis has 9 to 11 elements
    gens = list(generators_over(make_params(3, 2, 1), PrimeField(r)))
    for i, g in enumerate(gens):
        lm = oracles.leading(g)[0]
        doubled = g.ring.poly({e: c if e == lm else 2 * c for e, c in g.raw_terms().items()})
        changed = gens[:i] + [doubled] + gens[i + 1:]
        assert 9 <= len(oracles.buchberger_textbook(changed)) <= 11
        with pytest.raises(ValueError, match=REFUSED):
            buchberger(changed)


@pytest.mark.parametrize("r, seed", [(r, seed) for r in (5, 7) for seed in range(12)])
def test_buchberger_matches_the_textbook_oracle_on_random_ideals(r, seed):
    # the textbook oracle grows every one of these dense ideals by new
    # leads, and buchberger refuses them all
    ring = polynomial_ring(make_params(2, 2, 1), PrimeField(r))
    rng = random.Random(seed)
    gens = [
        ring.poly({tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(1, r - 1)
                   for _ in range(3)})
        for _ in range(3)
    ]
    leads = {oracles.leading(g)[0] for g in oracles.buchberger_textbook(gens)}
    assert leads - {oracles.leading(g)[0] for g in gens}
    with pytest.raises(ValueError, match=REFUSED):
        buchberger(gens)


# SHA-256 of the newline-joined text() of buchberger's output over F_5,
# captured before the reducer index was shared: (n, p, h) -> (len, digest)
BASIS_PINS = {
    (3, 2, 2): (75, "8932ff18124b9319cf17d74bc90dd2d9cd4f9616c89df3074b3b7185a5b4f9f1"),
    (4, 3, 1): (126, "b70b7352eb04fc726db47692f334ed65d12e6726daa2dbeb8f06590773232cb1"),
    (6, 2, 1): (105, "7ca0a942baef3ae79365fa7fda3fd96543ab809aed7c28b95804c1f8f8ac1f09"),
    (3, 5, 1): (165, "3e551dd4b83edbe84976fdd3fcae3099a10e9c349cf33dd22928a7d563d02fcb"),
}


@pytest.mark.parametrize("npq", sorted(BASIS_PINS), ids=str)
def test_buchberger_bases_pinned_and_reduced(npq):
    gb = buchberger(generators_over(make_params(*npq), F5))
    size, digest = BASIS_PINS[npq]
    text = "\n".join(g.text() for g in gb.polys)
    assert (len(gb), hashlib.sha256(text.encode()).hexdigest()) == (size, digest)
    leads = [oracles.leading(g)[0] for g in gb.polys]
    assert all(oracles.leading(g)[1] == 1 for g in gb.polys)
    for i, a in enumerate(leads):
        assert not any(i != j and all(x <= y for x, y in zip(a, b)) for j, b in enumerate(leads))
    for g in gb.polys:
        lm = oracles.leading(g)[0]
        for e in g.raw_terms():
            if e != lm:
                assert not any(all(x <= y for x, y in zip(a, e)) for a in leads)


def _exponents(n: int):
    # small entries make divisibility and ties common; the wide ones reach
    # the top of a field while a sum of two tuples stays within the limit
    entry = st.one_of(st.integers(0, 3), st.integers(0, MAX_DEGREE // (2 * n)))
    return st.lists(entry, min_size=n, max_size=n).map(tuple)


@st.composite
def _exponent_triples(draw):
    n = draw(st.integers(1, 8))
    return tuple(draw(_exponents(n)) for _ in range(3))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_exponent_triples())
def test_packed_monomials_match_tuple_monomials(case):
    a, b, c = case
    lay = _layout(len(a))
    pa, pb = lay.pack(a), lay.pack(b)
    assert lay.unpack(pa) == a
    assert (lay.key(pa) > lay.key(pb)) == (_degrevlex_key(a) > _degrevlex_key(b))
    assert (lay.key(pa) == lay.key(pb)) == (a == b)
    ac = tuple(x + y for x, y in zip(a, c))
    assert pa + lay.pack(c) == lay.pack(ac)
    if any(a):  # a reducer's lead has positive degree
        red = _Reducers(PolyRing(F5, range(len(a))))
        red.add(pa, [])
        for target in (b, ac):
            assert (red.find(lay.pack(target)) == 0) == oracles.mono_divides(a, target)


@lru_cache(maxsize=None)
def _division_bases(r: int) -> tuple:
    """The bases of two star quadric sets over F_r."""
    field = PrimeField(r)
    return tuple(buchberger(generators_over(make_params(*nph), field))
                 for nph in ((3, 2, 1), (2, 3, 1)))


@st.composite
def _division_cases(draw):
    r = draw(st.sampled_from((5, 7)))
    gb = _division_bases(r)[draw(st.integers(0, 1))]
    exps = st.lists(st.integers(0, 3), min_size=gb.ring.nvars, max_size=gb.ring.nvars)
    terms = draw(st.dictionaries(exps.map(tuple), st.integers(1, r - 1), max_size=6))
    return gb, gb.ring.poly(terms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_division_cases())
def test_reduce_matches_the_tuple_division(case):
    gb, f = case
    assert reduce(f, gb) == oracles.normal_form(f, gb.polys)


def test_packed_degree_limit(params321):
    ring = polynomial_ring(params321, F5)

    def mono(*pairs):
        return ring.poly({pairs: 1})

    top = mono(((1, 1), MAX_DEGREE))
    over = mono(((1, 1), MAX_DEGREE + 1))
    gb = buchberger(generators_over(params321, F5))
    with pytest.raises(ValueError, match=f"limit {MAX_DEGREE}"):
        buchberger([over])
    with pytest.raises(ValueError, match=f"limit {MAX_DEGREE}"):
        reduce(over, gb)
    with pytest.raises(ValueError, match=REFUSED):
        buchberger([top])
    assert reduce(top, gb) == oracles.normal_form(top, gb.polys)
    # a negative exponent would borrow from the next field; PolyRing.poly
    # rejects one, so the term dict is handed to Poly as it stands
    with pytest.raises(ValueError, match="do not fit"):
        buchberger([Poly(ring, {(2, -1, 0, 0, 0, 0): 1})])

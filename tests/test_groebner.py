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
from veronese.polys import PolyRing
from veronese.toric import generators_over, quadratic_generators

F5 = PrimeField(5)
# the message of every input that is not a star quadric set
REFUSED = "not the star quadrics of a Veronese ideal"


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
    gens = list(generators_over(params321, F5))
    gb = buchberger([ring.zero()] + gens + [ring.zero()])
    assert gb.polys == buchberger(gens).polys
    with pytest.raises(ValueError, match="no nonzero generators"):
        buchberger([ring.zero()])
    # one star quadric generates a smaller ideal than the Veronese one,
    # of which it is a basis; buchberger proves only the whole star set
    quadric = ring.poly({(((1, 2), 2),): 1, (((1, 1), 1), ((2, 2), 1)): -1})
    with pytest.raises(ValueError, match=REFUSED):
        buchberger([ring.zero(), quadric, ring.zero()])


def _scaled(gens, seed: int) -> list:
    """gens with each variable x_v scaled by a seeded nonzero lambda_v.
    A diagonal scaling keeps every lead and maps a basis to a basis,
    but the monic tails lose the coefficient r - 1, so the elements are
    no star quadrics and buchberger refuses them."""
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


def test_lead_checks_refuse_scaled_star_sets():
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
    # dense random generators are no star quadrics, and no set is its
    # own sympy basis: buchberger, which computes no S-pair, refuses
    # them all
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
    # three certificates accept every star set with |T| <= 36 and
    # (4,2,2): buchberger's lead arithmetic, the degree-3 graph count
    # and the Hilbert-function count, which share no code; past
    # |T| = 21 the textbook oracle takes from seconds to minutes a set
    field = PrimeField(r)
    for nph in GRID_T36 + [(4, 2, 2)]:
        n, p, h = nph
        gens = generators_over(make_params(*nph), field)
        assert oracles.is_quadric_basis(gens), nph
        gb = buchberger(gens)
        assert gb.pairs_processed == 0
        assert oracles.poly_key_set(gb.polys) == oracles.poly_key_set(map(oracles.monic, gens)), nph
        assert oracles.quadric_basis_certified(gb.polys, n, p**h), nph


@pytest.mark.parametrize("r", _COUNT_FIELDS)
def test_lead_checks_refuse_star_sets_less_a_generator(r):
    # with one of the six (3,2,1) quadrics dropped, five of the sets are
    # no basis and the textbook oracle grows them; the sixth is a basis
    # of a smaller ideal, which the degree-3 count proves.  buchberger
    # proves only the Veronese ideal's star set and refuses all six
    gens = list(generators_over(make_params(3, 2, 1), PrimeField(r)))
    sizes = []
    for i in range(len(gens)):
        rest = gens[:i] + gens[i + 1:]
        want = oracles.buchberger_textbook(rest)
        sizes.append(len(want))
        assert oracles.is_quadric_basis(rest) == (len(want) == len(rest)), i
        with pytest.raises(ValueError, match=REFUSED):
            buchberger(rest)
    assert sorted(sizes) == [5, 6, 6, 7, 7, 7]


@pytest.mark.parametrize("r", _COUNT_FIELDS)
@pytest.mark.parametrize("nph", [(4, 2, 1), (3, 3, 1), (2, 2, 2)], ids=str)
def test_lead_checks_refuse_full_quadric_sets(nph, r):
    # every pairwise difference of a content group repeats leads, and
    # some tails are no consecutive split, so buchberger refuses the set
    field = PrimeField(r)
    gens = [g.map_field(field) for g in quadratic_generators(make_params(*nph), full=True)]
    assert len({oracles.leading(g)[0] for g in gens}) < len(gens)
    with pytest.raises(ValueError, match=REFUSED):
        buchberger(gens)


@pytest.mark.parametrize("r", (3, 5, 7))
def test_lead_checks_refuse_a_doubled_tail(r):
    # doubling one tail coefficient leaves the leads as they are, but
    # the ideal changes and its basis has 9 to 11 elements
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


@lru_cache(maxsize=None)
def _grid_basis(nph: tuple, r: int):
    return buchberger(generators_over(make_params(*nph), PrimeField(r)))


@st.composite
def _polys_to_degree_5(draw, gb):
    r, nvars = gb.ring.field.r, gb.ring.nvars

    def exps(positions):
        e = [0] * nvars
        for i in positions:
            e[i] += 1
        return tuple(e)

    mono = st.lists(st.integers(0, nvars - 1), max_size=5).map(exps)
    return gb, gb.ring.poly(draw(st.dictionaries(mono, st.integers(1, r - 1), max_size=6)))


@pytest.mark.parametrize("r", _COUNT_FIELDS)
@pytest.mark.parametrize("nph", GRID_T36, ids=lambda nph: "%d%d%d" % nph)
def test_reduce_matches_the_tuple_division_on_the_grid(nph, r):
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(_polys_to_degree_5(_grid_basis(nph, r)))
    def check(case):
        gb, f = case
        assert reduce(f, gb) == oracles.normal_form(f, gb.polys)

    check()


def test_reduce_has_no_degree_cap(params321):
    ring = polynomial_ring(params321, F5)
    gb = buchberger(generators_over(params321, F5))
    nf = reduce(ring.poly({(((1, 2), 40_000),): 1}), gb)
    assert nf == ring.poly({(((1, 1), 20_000), ((2, 2), 20_000)): 1})


def test_the_423_basis_is_proved_and_holds_its_generators():
    # 12,726 quadrics: the lead arithmetic proves them in a fraction of
    # a second, where the degree-3 graph count takes about 21 s
    n, q = 4, 8
    gens = generators_over(make_params(4, 2, 3), F5)
    gb = buchberger(gens)
    size = comb(n + q - 1, q)
    assert len(gb) == comb(size + 1, 2) - comb(n + 2 * q - 1, 2 * q) == 12_726
    assert all(reduce(g, gb).is_zero() for g in gens)


def test_buchberger_refuses_a_ring_missing_a_tuple(params321):
    # the star quadrics that avoid x_33, in a ring without it: the
    # variables are no longer all of T
    gens = generators_over(params321, F5)
    ring = PolyRing(F5, [t for t in gens[0].ring.variables if t != (3, 3)])
    kept = [ring.poly({tuple(e[:-1]): c for e, c in g.raw_terms().items()})
            for g in gens if not any(e[-1] for e in g.raw_terms())]
    assert kept
    with pytest.raises(ValueError, match=REFUSED):
        buchberger(kept)
    # and a ring whose variables are no index tuples at all
    ring = PolyRing(F5, range(3))
    with pytest.raises(ValueError, match=REFUSED):
        buchberger([ring.poly({(2, 0, 0): 1, (0, 1, 1): -1})])

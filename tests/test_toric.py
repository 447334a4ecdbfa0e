import hashlib
import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest

import oracles
from conftest import GRID_T36, GRID_T600, make_params
from veronese.combinatorics import index_tuples, integer_ring
from veronese.fields import PrimeField
from veronese.polys import mono_support
from veronese.toric import (
    TypeStarBinomial,
    ZeroBinomialError,
    generators_over,
    normalize_sign,
    quadratic_generators,
    quadric_pairs,
    rewrite,
)

F5 = PrimeField(5)


# star sets past GRID_T36: two-digit indices at (10,2,1), and the two
# largest sets any check or benchmark uses, |T| = 153 and 165
PAST_T36 = [(10, 2, 1), (3, 2, 4), (4, 2, 3)]


@pytest.mark.parametrize("nph", GRID_T36 + PAST_T36, ids=lambda nph: "%d%d%d" % nph)
def test_quadratic_generators_match_pairwise_build(nph):
    params = make_params(*nph)
    # past GRID_T36 the full sets run to 175,860 binomials; the pins
    # below fix the one at (10,2,1)
    for full in (False, True) if nph in GRID_T36 else (False,):
        got = quadratic_generators(params, full)
        want = oracles.quadratic_generators_by_pairs(params, full)
        ring = integer_ring(params)
        rebuilt = [oracles.quadric_poly(ring, g) for g in quadric_pairs(params, full)]
        assert [list(g.raw_terms().items()) for g in got] == [
            list(g.raw_terms().items()) for g in want
        ] == [list(g.raw_terms().items()) for g in rebuilt], full


@pytest.mark.parametrize("nph", GRID_T600, ids=lambda nph: "%d-%d-%d" % nph)
def test_quadric_pairs_match_the_content_oracle(nph):
    # the sweep's order against grouping by content and sorting each
    # group by its dense exponent vectors; the full sets of the larger
    # GRID_T600 sets run to millions of pairs, so full stops at |T| = 36
    # and (4,2,3), with 175,860 pairs
    params = make_params(*nph)
    big = params.cardinality() > 36 and nph != (4, 2, 3)
    for full in (False,) if big else (False, True):
        assert quadric_pairs(params, full) == oracles.quadric_pairs_by_content(params, full)
    quadric_pairs.cache_clear()


def _factors(ring, exps) -> list:
    """The index tuples of a degree-2 monomial, ascending."""
    return sorted(v for v, e in zip(ring.variables, exps) for _ in range(e))


@pytest.mark.parametrize("nph", GRID_T36 + PAST_T36, ids=lambda nph: "%d%d%d" % nph)
def test_star_leads_are_consecutive_splits(nph):
    # the + term x_t*x_u of a star quadric is the consecutive split of
    # its content c: t = c[:q], u = c[q:], so t[-1] <= u[0]; the - term
    # is another factorisation of c, so it is not
    params = make_params(*nph)
    q = params.q
    for g in quadratic_generators(params):
        (plus, one), (minus, minus_one) = g.raw_terms().items()
        assert (one, minus_one) == (1, -1)
        t, u = _factors(g.ring, plus)
        v, w = _factors(g.ring, minus)
        c = sorted(t + u)
        assert c == sorted(v + w)
        assert (t, u) == (tuple(c[:q]), tuple(c[q:])) and t[-1] <= u[0], g.text()
        assert v[-1] > w[0], g.text()


def _generators_digest(gens) -> str:
    """SHA-256 over binomials in order: per binomial one line, the repr
    of its [(support, coefficient)] terms in their stored order."""
    h = hashlib.sha256()
    for g in gens:
        h.update(repr([(mono_support(e), c) for e, c in g.raw_terms().items()]).encode())
        h.update(b"\n")
    return h.hexdigest()


# (n, p, h): (count, SHA-256) of generators_over(params, F_p), and of the
# full integer set at (10,2,1)
_GENERATORS_OVER_PINS = {
    (10, 2, 1): (825, "891aa850c0f220861b66de04a9ccd7b5a37f880546705a09ed5aa70f43f719f8"),
    (3, 2, 4): (11220, "1f673b617cd7c0937b05764c97e5c1f73b97b735bd834ade4f64085101b71d3d"),
    (4, 2, 3): (12726, "f917fcd56d80b145a14a68e58dd560aafcae84242f6b6e5b99cb29aac6d9b8ee"),
}
_FULL_1021_PIN = (1035, "7a5fc43c31dbec9be7efd6eb82d60caaec77e23da69599ce10d0dbb2846ab87f")


@pytest.mark.parametrize("nph", PAST_T36, ids=lambda nph: "%d%d%d" % nph)
def test_generators_over_frozen(nph):
    params = make_params(*nph)
    gens = generators_over(params, PrimeField(params.p))
    assert (len(gens), _generators_digest(gens)) == _GENERATORS_OVER_PINS[nph]
    if nph == (10, 2, 1):
        full = quadratic_generators(params, full=True)
        assert (len(full), _generators_digest(full)) == _FULL_1021_PIN


def test_generator_count_star_vs_full():
    for n, p, h in ((3, 2, 1), (3, 3, 1), (4, 2, 1)):
        params = make_params(n, p, h)
        tuples = index_tuples(params)
        classes = Counter()
        for a, b in combinations_with_replacement(tuples, 2):
            ea = [0] * n
            for j in a + b:
                ea[j - 1] += 1
            classes[tuple(ea)] += 1
        star = quadratic_generators(params)
        full = quadratic_generators(params, full=True)
        pairs = sum(classes.values())
        assert len(star) == pairs - len(classes)
        assert len(full) == sum(c * (c - 1) // 2 for c in classes.values())
        assert set(star) <= set(full)


def test_generators_are_content_equal_binomials():
    for n, p, h in ((3, 2, 1), (3, 3, 1), (4, 2, 1)):
        params = make_params(n, p, h)
        for g in quadratic_generators(params, full=True):
            terms = sorted(g.raw_terms().items())
            assert sorted(c for _, c in terms) == [-1, 1]
            variables = g.ring.variables
            (e1, _), (e2, _) = terms
            assert oracles.content(variables, e1, n) == oracles.content(
                variables, e2, n
            )
            assert sum(e1) == sum(e2) == 2


def test_six_generators_frozen(params321):
    texts = sorted(g.text() for g in quadratic_generators(params321))
    assert texts == [
        "-x12*x13 + x11*x23",
        "-x12^2 + x11*x22",
        "-x13*x22 + x12*x23",
        "-x13*x23 + x12*x33",
        "-x13^2 + x11*x33",
        "-x23^2 + x22*x33",
    ]


def test_generators_over_field(params321):
    gens = generators_over(params321, F5)
    assert all(g.ring.field == F5 for g in gens)
    assert len(gens) == 6


def test_normalize_sign():
    params = make_params(3, 2, 1)
    ring = integer_ring(params)
    g = ring.poly({(((1, 2), 2),): 1, (((1, 1), 1), ((2, 2), 1)): -1})
    flipped = normalize_sign(g)
    # the lex-larger monomial x11*x22 ends up with +1
    assert flipped.raw_terms()[ring.exps_of([((1, 1), 1), ((2, 2), 1)])] == 1
    assert normalize_sign(flipped) == flipped
    assert normalize_sign(-flipped) == flipped


def test_type_star_validation(params321):
    with pytest.raises(ValueError):
        TypeStarBinomial(params321, ((1, 2, 3),), (1, 2, 3))  # block length 3 != q
    with pytest.raises(ValueError):
        TypeStarBinomial(params321, ((1, 2), (4, 4)), (1, 2, 3, 4))  # value 4 > n
    with pytest.raises(ValueError):
        TypeStarBinomial(params321, ((1, 2),), (1, 1))  # sigma not a permutation
    with pytest.raises(ValueError):
        TypeStarBinomial(params321, ((2, 1),), (1, 2))  # block not sorted


def test_type_star_blocks_and_zero(params321):
    t = TypeStarBinomial(params321, ((1, 1), (2, 3)), (2, 3, 1, 4))
    assert t.left_blocks() == ((1, 1), (2, 3))
    # scrambled sequence (1, 2, 1, 3) chunks to (1, 2), (1, 3)
    assert t.right_blocks() == ((1, 2), (1, 3))
    assert not t.is_zero()
    assert t.poly().text() == "-x12*x13 + x11*x23"

    ident = TypeStarBinomial(params321, ((1, 2), (1, 3)), (1, 2, 3, 4))
    assert ident.is_zero()
    assert ident.poly().is_zero()

    # a pure relabel of equal blocks is zero as well
    swap = TypeStarBinomial(params321, ((1, 2), (1, 2)), (3, 4, 1, 2))
    assert swap.is_zero()


def test_rewrite_rejects_zero(params321):
    z = TypeStarBinomial(params321, ((1, 2), (1, 3)), (1, 2, 3, 4))
    with pytest.raises(ZeroBinomialError):
        rewrite(z)


def test_rewrite_single_quadratic(params321):
    t = TypeStarBinomial(params321, ((1, 1), (2, 3)), (2, 3, 1, 4))
    cert = rewrite(t)
    assert len(cert) == 1
    step = cert.steps[0]
    assert step.cofactor == (0,) * params321.cardinality()
    assert cert.expansion() == t.poly()


def test_rewrite_worked_cubic(params321):
    # three blocks, one spectator: certificate leaves the spectator in
    # every cofactor and expands exactly
    t = TypeStarBinomial(
        params321, ((1, 1), (2, 3), (3, 3)), (2, 3, 1, 4, 5, 6)
    )
    cert = rewrite(t)
    assert cert.expansion() == t.poly()
    assert all(
        sum(e) == 2 for st in cert.steps for e in st.quadratic.raw_terms()
    )
    assert all(sum(st.cofactor) == 1 for st in cert.steps)


def test_rewrite_random_expansion_exact():
    rng = random.Random(41)
    trials = 0
    while trials < 150:
        n = rng.choice((2, 3, 4))
        p, h = rng.choice(((2, 1), (3, 1), (2, 2)))
        params = make_params(n, p, h)
        q = params.q
        s = rng.randint(1, 3)
        blocks = tuple(
            tuple(sorted(rng.choices(range(1, n + 1), k=q))) for _ in range(s)
        )
        sigma = tuple(rng.sample(range(1, s * q + 1), s * q))
        t = TypeStarBinomial(params, blocks, sigma)
        if t.is_zero():
            continue
        trials += 1
        cert = rewrite(t)
        assert cert.expansion() == t.poly()
        for st in cert.steps:
            terms = sorted(st.quadratic.raw_terms().items())
            assert sorted(c for _, c in terms) == [-1, 1]
            variables = st.quadratic.ring.variables
            (e1, _), (e2, _) = terms
            assert oracles.content(variables, e1, n) == oracles.content(
                variables, e2, n
            )
            assert st.sign in (-1, 1)


def test_rewrite_steps_reduce_block_distance(params321):
    # left and right block multisets agree after applying all steps;
    # expansion equality is the strong form of that statement
    t = TypeStarBinomial(
        params321, ((1, 1), (1, 1), (2, 3)), (4, 3, 2, 1, 6, 5)
    )
    if not t.is_zero():
        cert = rewrite(t)
        assert cert.expansion() == t.poly()

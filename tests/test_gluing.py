import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import GRID_T600, make_params
from veronese import cli, exponent_vectors, gluing, lattice
from veronese.gluing import (
    GluingWitness,
    PackedGens,
    SemigroupGens,
    check_p_gluing,
    completely_p_glued,
    semigroup_member,
    validate_witness,
)
from veronese.lattice import echelon_basis


def _splits(comb):
    """(rest, {beta}, witness) for every peel of the comb, in order."""
    rest = comb.gens
    for beta, w in comb.peels:
        rest = rest.without(beta)
        yield rest, SemigroupGens(rest.dim, (beta,)), w


def _check(rest, beta, p, s):
    """check_p_gluing on a plain generator set: d read from a fresh
    echelon basis, fields as wide as the target p^s*d*max(beta)."""
    d = oracles.quotient_order(echelon_basis(rest.gens), beta)
    packed = PackedGens(rest.gens, p**s * d * max(beta))
    return check_p_gluing(packed, beta, d, p, s)


def test_semigroup_gens_validation():
    with pytest.raises(ValueError):
        SemigroupGens.of([(1, 0), (1,)])
    with pytest.raises(ValueError):
        SemigroupGens.of([(1, -1)])
    with pytest.raises(ValueError):
        SemigroupGens.of([(0, 0)])
    with pytest.raises(ValueError):
        SemigroupGens.of([(1, 0), (1, 0)])


def test_is_free():
    assert SemigroupGens.of([(1, 0), (0, 1)]).is_free()
    assert not SemigroupGens.of([(1, 0), (0, 1), (1, 1)]).is_free()
    assert SemigroupGens.of([(2, 0, 0), (0, 2, 0), (0, 0, 2)]).is_free()
    assert SemigroupGens.of([(1, 1)]).is_free()
    # no more generators than coordinates, yet dependent: the echelon rank decides
    assert not SemigroupGens.of([(2, 0, 0), (0, 2, 0), (1, 1, 0)]).is_free()


def test_semigroup_member_graded():
    gens = SemigroupGens.of([(2, 0), (0, 2), (1, 1)])
    rep = semigroup_member(gens, (3, 3))
    assert rep is not None
    combo = [0, 0]
    for c, g in zip(rep, gens.gens):
        combo[0] += c * g[0]
        combo[1] += c * g[1]
    assert tuple(combo) == (3, 3)
    assert semigroup_member(gens, (1, 0)) is None
    assert semigroup_member(gens, (3, 2)) is None  # odd total, degree 2
    assert semigroup_member(gens, (0, 0)) == (0, 0, 0)


def test_semigroup_member_matches_brute_force():
    gens = SemigroupGens.of([(3, 0), (0, 3), (1, 2), (2, 1)])
    for x in range(10):
        for y in range(10):
            got = semigroup_member(gens, (x, y)) is not None
            assert got == oracles.semigroup_member_brute(gens.gens, (x, y))


def test_semigroup_member_deep_targets():
    # over a thousand picks deep: the search keeps its own stack
    assert semigroup_member(SemigroupGens.of([(1, 0), (0, 1)]), (600, 600)) == (
        600, 600,
    )
    # the first witness in generator order: each generator as often as fits
    gens = SemigroupGens.of([(2, 0), (0, 2), (1, 1)])
    assert semigroup_member(gens, (601, 599)) == (300, 299, 1)
    # 1,499 picks of 2 leave 1: the search backs up one level, 1,500 deep
    assert semigroup_member(SemigroupGens.of([(2,), (3,)]), (2999,)) == (1498, 1)


def test_semigroup_member_ungraded_bound():
    # ungraded sets need no bound on the number of picks: every pick
    # lowers the coordinate sum, so the search always decides
    gens = SemigroupGens.of([(2,), (3,)])
    assert semigroup_member(gens, (7,)) is not None
    assert semigroup_member(gens, (1,)) is None
    assert semigroup_member(gens, (10,)) == (5, 0)


def test_semigroup_member_bound_cut_is_not_a_failure():
    # 6+6+6+6+3+1+1 uses 7 picks; a branch that goes deep must not leave
    # a (rest, start) marked as a dead end that a later branch can reach
    gens = SemigroupGens.of([(1,), (3,), (6,)])
    rep = semigroup_member(gens, (29,))
    assert rep is not None
    assert sum(c * g[0] for c, g in zip(rep, gens.gens)) == 29
    assert rep == oracles.semigroup_member_dfs(gens.gens, (29,))


def test_semigroup_member_ungraded_matches_least_picks():
    # against a brute-force search by number of picks: a witness exactly
    # when some combination exists, never a wrong None
    rng = random.Random(23)
    cases = []
    for _ in range(300):
        dim = rng.choice((1, 2))
        vectors = set()
        while len(vectors) < rng.randrange(2, 5):
            v = tuple(rng.randrange(0, 5) for _ in range(dim))
            if any(v):
                vectors.add(v)
        cases.append((sorted(vectors), tuple(rng.randrange(0, 16) for _ in range(dim))))
    for vectors, target in cases:
        gens = SemigroupGens.of(vectors)
        rep = semigroup_member(gens, target)
        least = oracles.semigroup_least_picks(gens.gens, target)
        assert (rep is None) == (least is None), (vectors, target)
        if rep is not None:
            combo = tuple(
                sum(c * g[k] for c, g in zip(rep, gens.gens))
                for k in range(len(target))
            )
            assert combo == target


# the largest entry per dimension that keeps a search at most ~20,000
# remainders, and the field boundaries 2^k - 1, 2^k, 2^k + 1 below it
_ENTRY_CAP = {1: 300, 2: 140, 3: 26, 4: 10, 5: 6}


def _composition(cuts, deg) -> tuple:
    """The parts of deg between sorted cut points."""
    cuts = sorted(cuts)
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))


@st.composite
def _membership_cases(draw):
    dim = draw(st.integers(1, 5))
    cap = _ENTRY_CAP[dim]
    edges = sorted({e for k in range(1, cap.bit_length())
                    for e in (2**k - 1, 2**k, 2**k + 1) if e <= cap})
    entry = st.one_of(st.integers(0, cap), st.sampled_from(edges))
    if dim > 1 and draw(st.booleans()):
        # graded: every generator a composition of one degree
        deg = draw(st.one_of(st.integers(1, cap), st.sampled_from(edges)))
        cuts = st.lists(st.integers(0, deg), min_size=dim - 1, max_size=dim - 1)
        vector = cuts.map(lambda c: _composition(c, deg))
    else:
        vector = st.tuples(*[entry] * dim).filter(any)
    vectors = draw(st.lists(vector, min_size=1, max_size=5, unique=True))
    picks = draw(st.lists(st.sampled_from(vectors), max_size=4))
    combo = tuple(map(sum, zip(*picks))) if picks else (0,) * dim
    # a random target, a combination of generators, or one next to it
    nudge = st.tuples(*[st.integers(-1, 1)] * dim)
    target = draw(st.one_of(
        st.tuples(*[entry] * dim),
        st.just(combo).filter(lambda t: max(t) <= cap),
        nudge.map(lambda e: tuple(max(0, min(cap, x + y)) for x, y in zip(combo, e))),
    ))
    return vectors, target


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_membership_cases())
@example(([(1, 0), (0, 1)], (3, 4)))
@example(([(7, 0), (1, 8)], (8, 8)))  # a field emptied exactly: 8 - 7 - 1 = 0
@example(([(2, 2), (1, 3), (0, 4)], (3, 5)))
@example(([(255,), (257,)], (256,)))
def test_packed_search_matches_the_tuple_oracle(case):
    # the same first witness as the search on tuples, not only the same
    # yes or no; wider fields than the target needs change nothing
    vectors, target = case
    gens = SemigroupGens.of(vectors)
    want = oracles.semigroup_member_dfs(gens.gens, target)
    assert semigroup_member(gens, target) == want
    assert PackedGens(gens.gens, 2 * max(target) + 1).member(target) == want


def test_packed_fields_refuse_a_target_past_the_guard():
    # fields sized for entries up to 7 are 4 bits wide; 8 would set a guard
    packed = PackedGens([(1, 0), (0, 1)], 7)
    assert packed.width == 4
    assert packed.member((7, 7)) == (7, 7)
    with pytest.raises(ValueError, match="fit"):
        packed.member((8, 0))
    assert packed.member((-1, 0)) is None


def test_check_p_gluing_frozen_quadratic():
    t1 = SemigroupGens.of([(2, 0), (0, 2)])
    t2 = SemigroupGens.of([(1, 1)])
    w = _check(t1, (1, 1), 2, 0)
    assert isinstance(w, GluingWitness)
    assert w.alpha == (2, 2)
    assert w.s == 0
    assert validate_witness(t1, t2, 2, w)


def test_check_p_gluing_needs_positive_power():
    t1 = SemigroupGens.of(
        [(2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1)]
    )
    t2 = SemigroupGens.of([(1, 1, 0)])
    w = _check(t1, (1, 1, 0), 2, 1)
    assert isinstance(w, GluingWitness)
    assert w.alpha == (1, 1, 0)
    assert w.s == 1
    assert validate_witness(t1, t2, 2, w)


def test_check_p_gluing_single_generator_outside_span():
    t1 = SemigroupGens.of([(1, 0, 0), (0, 1, 0)])
    assert _check(t1, (0, 0, 1), 2, 1) is None
    # the quotient order is read in the echelon basis, not by a search
    t1 = SemigroupGens.of([(4, 0), (0, 4)])
    w = _check(t1, (1, 3), 2, 0)
    assert w == GluingWitness((4, 12), 0, (1, 3), (4,))
    assert validate_witness(t1, SemigroupGens.of([(1, 3)]), 2, w)


def test_check_p_gluing_s_cap():
    t1 = SemigroupGens.of(
        [(2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1)]
    )
    # one search, at the s asked for: (1,1,0) is no generator of t1
    assert _check(t1, (1, 1, 0), 2, 0) is None
    with pytest.raises(ValueError, match="dimensions"):
        check_p_gluing(PackedGens(t1.gens, 2), (1, 1), 1, 2, 1)


def test_check_p_gluing_searches_up_to_the_cap():
    # N(rest) = <3,5> x <3,5> lacks the axis witness of a Veronese rest,
    # so d = 1 and the least s is 3: (8,8) = (3,0)+(5,0)+(0,3)+(0,5)
    rest = SemigroupGens.of([(3, 0), (5, 0), (0, 3), (0, 5)])
    beta = (1, 1)
    w = _check(rest, beta, 2, 3)
    assert w == GluingWitness((1, 1), 3, (1, 1, 1, 1), (8,))
    assert w.rep1 == oracles.semigroup_member_dfs(rest.gens, (8, 8))
    assert validate_witness(rest, SemigroupGens.of([beta]), 2, w)
    assert _check(rest, beta, 2, 2) is None
    # fields sized from the wrong bound p^s*d <= 4 cannot hold (8,8):
    # the search raises instead of borrowing across fields
    with pytest.raises(ValueError, match="fit"):
        check_p_gluing(PackedGens(rest.gens, 4), beta, 1, 2, 3)
    # no s at all: N(rest) misses the ray of beta = (0,1), d = 2, and
    # the target (0, 2^13) at s = 12 is refuted in fields of 15 bits
    rest = PackedGens([(1, 0), (1, 2)], 2**12 * 2 * 1)
    assert rest.width == 15
    assert check_p_gluing(rest, (0, 1), 2, 2, 12) is None


def test_validate_witness_rejects_tampering():
    t1 = SemigroupGens.of([(2, 0), (0, 2)])
    t2 = SemigroupGens.of([(1, 1)])
    w = _check(t1, (1, 1), 2, 0)
    assert not validate_witness(t1, t2, 2, GluingWitness((2, 0), w.s, w.rep1, w.rep2))
    assert not validate_witness(t1, t2, 2, GluingWitness(w.alpha, w.s + 1, w.rep1, w.rep2))
    assert not validate_witness(t1, t2, 2, GluingWitness(w.alpha, w.s, (9, 9), w.rep2))


def test_completely_glued_quadratic_cone(params321):
    comb = completely_p_glued(params321)
    assert comb.gens.gens == tuple(exponent_vectors(params321))
    # 6 generators peel one at a time down to the free triple of axes
    assert [beta for beta, _ in comb.peels] == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert comb.free.gens == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    splits = list(_splits(comb))
    assert all(validate_witness(t1, t2, 2, w) for t1, t2, w in splits)
    assert splits[-1][0] == comb.free


def test_completely_glued_partitions_and_free_leaves():
    grid = ((3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2), (5, 2, 2), (4, 3, 1),
            (3, 3, 2))
    for n, p, h in grid:
        params = make_params(n, p, h)
        gens = SemigroupGens.of(exponent_vectors(params))
        comb = completely_p_glued(params)
        assert comb.free.is_free()
        betas = [beta for beta, _ in comb.peels]
        assert sorted(comb.free.gens + tuple(betas)) == sorted(gens.gens)
        assert len(comb.free.gens) == n
        # the peel-order lemma: d = q exactly for beta = e_j + (q-1)*e_n,
        # else 1, and the exponent lemma
        for beta, w in comb.peels:
            d = _order(beta, w)
            assert d == (params.q if beta[-1] == params.q - 1 else 1), (n, p, h, w)
            assert w.s == _least_exponent(params, w), (n, p, h, w)


def _order(beta, w) -> int:
    """The d of a peel, read off its witness alpha = d*beta."""
    return next(a // x for a, x in zip(w.alpha, beta) if x)


def _least_exponent(params, w) -> int:
    """The s of the exponent lemma: the least s with p^s*d*m >= q,
    d*m the first nonzero entry of alpha = d*beta."""
    a = next(x for x in w.alpha if x)
    return next(s for s in range(params.h + 1) if params.p**s * a >= params.q)


def _fold_orders(gens) -> list:
    """d of every beta modulo L(rest) by the oracle: an echelon basis of
    each rest, grown backwards from the axes one beta at a time."""
    axes = [g for g in gens if sum(1 for x in g if x) == 1]
    betas = [g for g in gens if sum(1 for x in g if x) > 1]
    basis = echelon_basis(axes)
    orders = []
    for beta in reversed(betas):
        orders.append(oracles.quotient_order(basis, beta))
        basis = echelon_basis(basis + [beta])
    return orders[::-1]


def test_peel_orders_are_the_closed_form():
    # the d each peel of the comb carries, against quotient orders over
    # echelon bases of every rest, and its s and rep1, against a search
    # at every s up to h: the lemmas of completely_p_glued, on every set
    # with |T| <= 600 and on the 990 peels of (45,2,1)
    assert len(GRID_T600) == 89
    for n, p, h in GRID_T600 + [(45, 2, 1)]:
        params = make_params(n, p, h)
        q = params.q
        comb = completely_p_glued(params)
        got = [_order(beta, w) for beta, w in comb.peels]
        assert got == _fold_orders(comb.gens.gens), (n, p, h)
        assert got == [q if b[-1] == q - 1 else 1 for b, _ in comb.peels]
        # fields for p^h*d*max(beta) <= q*q*(q-1), the largest target
        # any s <= h may ask for
        rest = PackedGens(comb.gens.gens, q * q * (q - 1))
        for beta, w in comb.peels:
            rest.remove(beta)
            least = oracles.least_gluing_exponent(rest, w.alpha, p, h)
            assert least == (w.s, w.rep1), (n, p, h, beta)
            assert w.s == _least_exponent(params, w), (n, p, h, beta)


def test_each_peel_runs_one_search(monkeypatch):
    # the search runs at the least s only; nothing below it is refuted
    calls = []
    member = PackedGens.member

    def spy(self, target):
        calls.append(target)
        return member(self, target)

    monkeypatch.setattr(PackedGens, "member", spy)
    for npq in ((4, 2, 3), (3, 2, 4)):
        calls.clear()
        comb = completely_p_glued(make_params(*npq))
        assert len(calls) == len(comb.peels), npq


@pytest.mark.parametrize("npq, size", [((4, 2, 4), 969), ((6, 2, 3), 1287)])
def test_combs_past_the_grid(npq, size):
    # every rep1 writes p^s*alpha by vector sums over its rest, at the s
    # of the exponent lemma
    params = make_params(*npq)
    comb = completely_p_glued(params)
    assert len(comb.gens.gens) == size
    rest = list(comb.gens.gens)
    for beta, w in comb.peels:
        rest.remove(beta)
        combo = [0] * params.n
        for c, g in zip(w.rep1, rest):
            for i, x in enumerate(g):
                combo[i] += c * x
        assert combo == [params.p**w.s * a for a in w.alpha], (beta, w)
        assert w.s == _least_exponent(params, w), (beta, w)
        assert w.rep2 == (params.p**w.s * _order(beta, w),)


@pytest.mark.parametrize("npq", [(4, 2, 3), (3, 2, 4), (5, 3, 1), (3, 5, 1), (12, 2, 1)])
def test_completely_glued_matches_the_rebuilt_comb(npq):
    # the closed-form orders and the packed search give, peel for peel,
    # the comb built with a fresh echelon basis of every rest and the
    # tuple search
    n, p, h = npq
    params = make_params(n, p, h)
    comb = completely_p_glued(params)
    peels, free = oracles.glued_comb_rebuilt(comb.gens.gens, p, h)
    got = tuple((beta, w.alpha, w.s, w.rep1, w.rep2) for beta, w in comb.peels)
    assert got == peels
    assert comb.free.gens == free


def test_completely_glued_peels_in_a_loop(capsys):
    # 66 peels at (12,2,1): building, drawing or checking the comb with
    # one frame per peel would need far more than 40 frames
    params = make_params(12, 2, 1)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        comb = completely_p_glued(params)
        code = cli.main(["gluing", "--n", "12", "--p", "2", "--h", "1"])
        valid = [validate_witness(t1, t2, 2, w) for t1, t2, w in _splits(comb)]
    finally:
        sys.setrecursionlimit(limit)
    assert len(comb.peels) == params.cardinality() - params.n == 66
    assert all(valid) and len(valid) == 66
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * 66 + 1
    assert lines[66] == "  " * 66 + f"free: {[list(g) for g in comb.free.gens]}"


def test_completely_glued_refuses_a_failed_peel(monkeypatch, params321):
    # a peel that is no p-gluing breaks the proof; no other order is tried
    monkeypatch.setattr(gluing, "check_p_gluing", lambda *a: None)
    with pytest.raises(RuntimeError, match=r"\(1, 1, 0\) is no p-gluing at s = 1"):
        completely_p_glued(params321)


def test_peel_sends_no_wide_matrix_to_snf(monkeypatch, params322):
    # the peel and the freeness test read echelon bases: no SNF at all,
    # through any module of the package that holds the function
    calls = []
    snf = lattice.smith_normal_form

    def spy(a):
        calls.append(a.shape)
        return snf(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("veronese") and getattr(module, "smith_normal_form", None) is snf:
            monkeypatch.setattr(module, "smith_normal_form", spy)
    gens = SemigroupGens.of(exponent_vectors(params322))
    assert len(gens.gens) > params322.n
    comb = completely_p_glued(params322)
    assert len(comb.peels) == len(gens.gens) - params322.n
    assert calls == []


def test_graded_degree_and_without():
    gens = SemigroupGens.of([(2, 0), (0, 2), (1, 1)])
    assert gens.graded_degree() == 2
    assert SemigroupGens.of([(2,), (3,)]).graded_degree() is None
    smaller = gens.without((1, 1))
    assert smaller.gens == ((2, 0), (0, 2))

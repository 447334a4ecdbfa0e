import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import GRID_T600, make_params
from veronese import cli, exponent_vectors, gluing, lattice
from veronese.combinatorics import MAX_Q
from veronese.gluing import (
    GluingWitness,
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


def test_semigroup_gens_validation():
    with pytest.raises(ValueError):
        SemigroupGens.of([(1, 0), (1,)])
    with pytest.raises(ValueError):
        SemigroupGens.of([(1, -1)])
    with pytest.raises(ValueError):
        SemigroupGens.of([(0, 0)])
    with pytest.raises(ValueError):
        SemigroupGens.of([(1, 0), (1, 0)])


def test_semigroup_gens_refuse_bool_entries():
    assert SemigroupGens.of([(1, 0), (0, 1)]).gens == ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="nonnegative integers"):
        SemigroupGens.of([(True, 0), (0, 1)])


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
    assert rep == oracles.PackedGens(gens.gens, 29).member((29,))


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
    # the packed oracle finds the same first witness as the search on
    # tuples, not only the same yes or no, in fields as wide as the
    # target needs or wider
    vectors, target = case
    gens = SemigroupGens.of(vectors)
    want = semigroup_member(gens, target)
    for top in (max(target), 2 * max(target) + 1):
        assert oracles.PackedGens(gens.gens, top).member(target) == want


def test_packed_fields_refuse_a_target_past_the_guard():
    # fields sized for entries up to 7 are 4 bits wide; 8 would set a guard
    packed = oracles.PackedGens([(1, 0), (0, 1)], 7)
    assert packed.width == 4
    assert packed.member((7, 7)) == (7, 7)
    with pytest.raises(ValueError, match="fit"):
        packed.member((8, 0))
    assert packed.member((-1, 0)) is None


def test_check_p_gluing_frozen_quadratic():
    # (2,2,1): beta = (1,1) = e_1 + (q-1)*e_2, so d = q = 2 and s = 0
    t1 = SemigroupGens.of([(2, 0), (0, 2)])
    t2 = SemigroupGens.of([(1, 1)])
    w = check_p_gluing(make_params(2, 2, 1), (1, 1))
    assert w == GluingWitness((2, 2), 0, (1, 1), (2,))
    assert validate_witness(t1, t2, 2, w)


def test_check_p_gluing_needs_positive_power(params321):
    # the first peel of (3,2,1): d = 1, so s = 1 and 2*(1,1,0) is the
    # axes (1,1) and (2,2); rest lists (1,1), (1,3), (2,2), (2,3), (3,3)
    t1 = SemigroupGens.of([(2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)])
    t2 = SemigroupGens.of([(1, 1, 0)])
    w = check_p_gluing(params321, (1, 1, 0))
    assert w == GluingWitness((1, 1, 0), 1, (1, 0, 1, 0, 0), (2,))
    assert validate_witness(t1, t2, 2, w)


def test_check_p_gluing_s_cap():
    # s never passes h, and reaches it where d*m = 1
    for n, p, h in ((3, 2, 4), (4, 2, 3), (3, 3, 2), (4, 3, 1)):
        comb = completely_p_glued(make_params(n, p, h))
        assert max(w.s for _, w in comb.peels) == h, (n, p, h)


def test_check_p_gluing_refuses_what_has_no_peel(params321):
    # only a non-axis generator of T has a peel: not an axis, a vector
    # of another dimension or degree, or the zero vector
    for beta in ((2, 0, 0), (1, 1), (1, 1, 1), (1, 0, 0), (0, 0, 0)):
        with pytest.raises(ValueError, match="no non-axis generator"):
            check_p_gluing(params321, beta)


def test_check_p_gluing_searches_up_to_the_cap():
    # (3,2,3), beta = (1,1,6): d = m = 1, so s = h = 3 and 8*beta is
    # the axis (1^8), then (2^8) and six (3^8).  The packed search
    # refutes every s below the cap and finds the same first witness
    params = make_params(3, 2, 3)
    beta = (1, 1, 6)
    w = check_p_gluing(params, beta)
    # rest: the axis (1^8) before beta, then every vector after it
    rest = [g for g in exponent_vectors(params) if 8 in g or g < beta]
    assert w.s == 3 and w.rep2 == (8,)
    assert [(g, c) for g, c in zip(rest, w.rep1) if c] == [
        ((8, 0, 0), 1), ((0, 8, 0), 1), ((0, 0, 8), 6)]
    packed = oracles.PackedGens(rest, 8 * 6)
    assert oracles.least_gluing_exponent(packed, beta, 2, 3) == (3, w.rep1)


def test_validate_witness_rejects_tampering():
    t1 = SemigroupGens.of([(2, 0), (0, 2)])
    t2 = SemigroupGens.of([(1, 1)])
    w = check_p_gluing(make_params(2, 2, 1), (1, 1))
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
    # each peel's (alpha, s, rep1, rep2) against the oracles: d from
    # quotient orders over echelon bases of every rest, then the packed
    # search at every s up to h, whose first witness at the least s is
    # the block rule's; the lemmas of completely_p_glued, on every set
    # with |T| <= 600 and on the 990 peels of (45,2,1)
    assert len(GRID_T600) == 89
    for n, p, h in GRID_T600 + [(45, 2, 1)]:
        params = make_params(n, p, h)
        q = params.q
        comb = completely_p_glued(params)
        orders = _fold_orders(comb.gens.gens)
        assert orders == [q if b[-1] == q - 1 else 1 for b, _ in comb.peels]
        # fields for p^h*d*max(beta) <= q*q*(q-1), the largest target
        # any s <= h may ask for
        rest = oracles.PackedGens(comb.gens.gens, q * q * (q - 1))
        for (beta, w), d in zip(comb.peels, orders):
            rest.remove(beta)
            alpha = tuple(d * x for x in beta)
            s, rep1 = oracles.least_gluing_exponent(rest, alpha, p, h)
            assert (w.alpha, w.s, w.rep1, w.rep2) == (alpha, s, rep1, (p**s * d,)), (
                n, p, h, beta)
            assert w.s == _least_exponent(params, w), (n, p, h, beta)


def test_combs_run_no_membership_search(monkeypatch):
    # the block rule writes every witness: check_p_gluing runs once per
    # peel and semigroup_member never
    calls = {"check_p_gluing": 0, "semigroup_member": 0}
    for name in calls:
        def spy(*args, _name=name, _fn=getattr(gluing, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(gluing, name, spy)
    for npq in ((4, 2, 3), (3, 2, 4)):
        calls.update(dict.fromkeys(calls, 0))
        comb = completely_p_glued(make_params(*npq))
        assert calls == {"check_p_gluing": len(comb.peels), "semigroup_member": 0}, npq


def _tail_rule(beta, w, q) -> bool:
    """Whether a peel's k = p^s*d and m = beta_j have k*m mod q > m, the
    peels whose blocks are not the consecutive split."""
    m = next(x for x in beta if x)
    return w.rep2[0] * m % q > m


def test_tail_rule_peels_pass_the_snf_recheck():
    # no set of reproduce-paper has a peel past the consecutive split;
    # these two do, and every peel is rechecked by Smith normal form
    for npq, peels, tail in (((3, 2, 3), 42, 7), ((3, 3, 2), 52, 6)):
        params = make_params(*npq)
        comb = completely_p_glued(params)
        assert len(comb.peels) == peels
        assert sum(_tail_rule(b, w, params.q) for b, w in comb.peels) == tail
        for t1, t2, w in _splits(comb):
            assert validate_witness(t1, t2, params.p, w), (npq, t2.gens, w)


def test_tail_rule_never_runs_short():
    # every (p, h, m) under MAX_Q with d = 1: k = p^s for the least s
    # with p^s*m >= q, (a, r) = divmod(k*m, q); r is never m, and where
    # r > m the K = k - a blocks hold every j at m - 1 apiece
    past = set()
    for p in (2, 3, 5, 7, 11, 13):
        for h in range(1, MAX_Q.bit_length()):
            q = p**h
            if q > MAX_Q:
                continue
            for m in range(1, q):
                k = next(p**s for s in range(h + 1) if p**s * m >= q)
                a, r = divmod(k * m, q)
                assert r != m, (p, h, m)
                if r > m:
                    past.add((q, m))
                    assert r <= (k - a) * (m - 1), (p, h, m)
    assert past == {(8, 3), (9, 5), (16, 3), (16, 6), (16, 7)}


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
    # the closed-form orders and the block rule give, peel for peel, the
    # comb built with a fresh echelon basis of every rest and the tuple
    # search
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

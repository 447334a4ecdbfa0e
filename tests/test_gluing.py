import random
import sys

import pytest

import oracles
from conftest import make_params
from veronese import cli, exponent_vectors, gluing, lattice
from veronese.gluing import (
    GluingWitness,
    NoGluing,
    SemigroupGens,
    check_p_gluing,
    completely_p_glued,
    semigroup_member,
    validate_witness,
)


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


def test_check_p_gluing_frozen_quadratic():
    t1 = SemigroupGens.of([(2, 0), (0, 2)])
    t2 = SemigroupGens.of([(1, 1)])
    w = check_p_gluing(t1, (1, 1), 2, 1)
    assert isinstance(w, GluingWitness)
    assert w.alpha == (2, 2)
    assert w.s == 0
    assert validate_witness(t1, t2, 2, w)


def test_check_p_gluing_needs_positive_power():
    t1 = SemigroupGens.of(
        [(2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1)]
    )
    t2 = SemigroupGens.of([(1, 1, 0)])
    w = check_p_gluing(t1, (1, 1, 0), 2, 1)
    assert isinstance(w, GluingWitness)
    assert w.alpha == (1, 1, 0)
    assert w.s == 1
    assert validate_witness(t1, t2, 2, w)


def test_check_p_gluing_single_generator_outside_span():
    t1 = SemigroupGens.of([(1, 0, 0), (0, 1, 0)])
    res = check_p_gluing(t1, (0, 0, 1), 2, 1)
    assert res == NoGluing("intersection rank 0 != 1")
    # the quotient order is read in the echelon basis, not by a search
    t1 = SemigroupGens.of([(4, 0), (0, 4)])
    w = check_p_gluing(t1, (1, 3), 2, 2)
    assert w == GluingWitness((4, 12), 0, (1, 3), (4,))
    assert validate_witness(t1, SemigroupGens.of([(1, 3)]), 2, w)


def test_check_p_gluing_s_cap():
    t1 = SemigroupGens.of(
        [(2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1)]
    )
    res = check_p_gluing(t1, (1, 1, 0), 2, s_cap=0)
    assert isinstance(res, NoGluing)
    with pytest.raises(ValueError, match="s_cap"):
        check_p_gluing(t1, (1, 1, 0), 2, s_cap=-1)
    with pytest.raises(ValueError, match="dimensions"):
        check_p_gluing(t1, (1, 1), 2, 1)


def test_validate_witness_rejects_tampering():
    t1 = SemigroupGens.of([(2, 0), (0, 2)])
    t2 = SemigroupGens.of([(1, 1)])
    w = check_p_gluing(t1, (1, 1), 2, 1)
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
        # the proved bound: d | q, and s <= h - j for d = p^j
        for beta, w in comb.peels:
            i = next(i for i, x in enumerate(beta) if x)
            d = w.alpha[i] // beta[i]
            assert params.q % d == 0, (n, p, h, w)
            j = next(j for j in range(h + 1) if p**j == d)
            assert w.s <= h - j, (n, p, h, w)


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
    monkeypatch.setattr(gluing, "check_p_gluing", lambda *a: NoGluing("forced"))
    with pytest.raises(RuntimeError, match=r"\(1, 1, 0\).*forced"):
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

import random
import tracemalloc
from itertools import product

import pytest

import oracles
from conftest import GRID_T36, make_params
from veronese import (
    PrimeField,
    geometry,
    fiber_check,
    index_tuples,
    jacobian_rank,
    parametrize,
    quadratic_generators,
)
from veronese.combinatorics import integer_ring, pure_tuple
from veronese.fields import is_prime
from veronese.geometry import (
    RootOfUnityError,
    _jacobian_row,
    matrix_rank_mod,
)
from veronese.toric import quadric_pairs


def _sparse(rows) -> list:
    """Dense integer rows as the {column: value} rows matrix_rank_mod takes."""
    return [dict(enumerate(row)) for row in rows]


def test_matrix_rank_mod_frozen():
    assert matrix_rank_mod(_sparse([[1, 2], [2, 4]]), 5) == 1
    assert matrix_rank_mod(_sparse([[1, 2], [2, 4]]), 3) == 1
    assert matrix_rank_mod(_sparse([[1, 2], [2, 5]]), 3) == 2
    assert matrix_rank_mod(_sparse([[0, 0], [0, 0]]), 7) == 0
    assert matrix_rank_mod(_sparse([[2, 0], [0, 2]]), 2) == 0
    assert matrix_rank_mod([{3: 1}, {0: 2, 3: -2}, {}], 5) == 2


def test_matrix_rank_mod_matches_sympy():
    rng = random.Random(47)
    for _ in range(60):
        r = rng.choice((2, 3, 5, 7))
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randrange(r) for _ in range(nc)] for _ in range(nr)]
        assert matrix_rank_mod(_sparse(rows), r) == oracles.rank_mod_sympy(rows, r)


def test_jacobian_rank_frozen(params321):
    f5 = PrimeField(5)

    rep = jacobian_rank(params321, parametrize(params321, (1, 1, 1), f5), 5)
    assert rep.rank == 3
    assert rep.triangular_ok is True
    assert rep.diagonal_value == 1
    assert rep.permutation == (1, 2, 3)

    origin = jacobian_rank(params321, (0,) * 6, 5)
    assert origin.rank == 0
    assert origin.triangular_ok is None

    moved = jacobian_rank(params321, parametrize(params321, (0, 1, 1), f5), 5)
    assert moved.rank == 3
    assert moved.permutation != (1, 2, 3)
    assert moved.triangular_ok is True


def test_jacobian_rank_matches_sympy(params321):
    rng = random.Random(53)
    gens = quadratic_generators(params321)
    tuples = index_tuples(params321)
    for _ in range(20):
        w = tuple(rng.randrange(5) for _ in tuples)
        rep = jacobian_rank(params321, w, 5)
        rows = oracles.jacobian_rows_dense(gens, w, 5)
        assert rep.rank == oracles.rank_mod_sympy(rows, 5)


def _sample_points(params, r, rng):
    """The origin, a parametrized point with a zero coordinate u_1, a
    random point with about half its coordinates zero, and a random point."""
    m = params.cardinality()
    u = [0] + [rng.randrange(1, r) for _ in range(params.n - 1)]
    sparse = tuple(rng.randrange(r) if rng.random() < 0.5 else 0 for _ in range(m))
    return [
        (0,) * m,
        parametrize(params, u, PrimeField(r)),
        sparse,
        tuple(rng.randrange(r) for _ in range(m)),
    ]


@pytest.mark.parametrize("nph", GRID_T36, ids=lambda nph: "%d%d%d" % nph)
def test_jacobian_rows_match_dense_derivatives(nph):
    params = make_params(*nph)
    ring = integer_ring(params)
    gens = [oracles.quadric_poly(ring, g) for g in quadric_pairs(params)]
    m = params.cardinality()
    tuples = index_tuples(params)
    pure = [tuples.index(pure_tuple(params, j)) for j in range(1, params.n + 1)]
    rng = random.Random(71)
    for r in (5, 7, 11):
        for w in _sample_points(params, r, rng):
            # the sparse rows from the pairs, at most four entries each,
            # against the dense gradient and the formal derivatives
            rows = [_jacobian_row(g, w) for g in quadric_pairs(params)]
            assert all(len(row) <= 4 for row in rows)
            dense = [[row.get(i, 0) % r for i in range(m)] for row in rows]
            assert dense == [oracles.jacobian_row_dense(g.raw_terms(), w, r) for g in gens]
            assert dense == oracles.jacobian_rows_dense(gens, w, r), (r, w)
            assert matrix_rank_mod(rows, r) == oracles.rank_mod_sympy(dense, r), (r, w)
            # the theorem jacobian_rank reports instead of checking: after
            # the report's relabelling the dense submatrix is triangular,
            # with the chosen pure coordinate on its diagonal
            rep = jacobian_rank(params, w, r)
            assert sorted(rep.permutation) == list(range(1, params.n + 1))
            assert (rep.triangular_ok is None) == (not any(w[i] for i in pure))
            wp = oracles.permuted_point(params, w, rep.permutation)
            ok, diag, _ = oracles.triangular_check_dense(params, wp, r)
            assert ok, (r, w)
            if rep.triangular_ok is None:
                assert rep.diagonal_value is None
            else:
                assert rep.triangular_ok is True
                j = rep.permutation[0]
                assert rep.diagonal_value == w[pure[j - 1]] == diag, (r, w)


def test_jacobian_full_rank_on_cone_points():
    rng = random.Random(59)
    for n, p, h, r in ((3, 2, 1, 5), (3, 3, 1, 7)):
        params = make_params(n, p, h)
        big_n = params.cardinality() - n
        for _ in range(10):
            u = [rng.randrange(r) for _ in range(n)]
            if not any(u):
                u[0] = 1
            rep = jacobian_rank(params, parametrize(params, u, PrimeField(r)), r)
            assert rep.rank == big_n
            assert rep.triangular_ok is True
            assert rep.diagonal_value != 0


def test_triangular_column_ordering_structural():
    # for every row tuple t outside the excluded band, the column hit by
    # the second monomial precedes t in the enumeration order
    for n, p, h in ((3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)):
        params = make_params(n, p, h)
        q = params.q
        ones = (1,) * (q - 1)
        for t in index_tuples(params):
            if t[: q - 1] == ones:
                continue
            partner = tuple(sorted((1,) + t[: q - 1]))
            assert partner < t
            assert partner != t


def test_jacobian_point_length_validated(params321):
    with pytest.raises(ValueError):
        jacobian_rank(params321, (0, 0), 5)


def test_fiber_frozen_examples(params321):
    rep = fiber_check(params321, 5, (1, 2, 3))
    assert rep.fiber == ((1, 2, 3), (4, 3, 2))
    assert rep.orbit == rep.fiber
    assert rep.equal
    assert rep.roots_of_unity == (1, 4)

    zero_coord = fiber_check(params321, 5, (0, 1, 2))
    assert zero_coord.fiber == ((0, 1, 2), (0, 4, 3))
    assert zero_coord.equal


def test_fiber_cubic(params331):
    rep = fiber_check(params331, 7, (1, 1, 1))
    assert rep.fiber == ((1, 1, 1), (2, 2, 2), (4, 4, 4))
    assert rep.roots_of_unity == (1, 2, 4)
    assert rep.equal


def test_fiber_size_is_q():
    rng = random.Random(61)
    for n, p, h, r in ((3, 2, 1, 5), (3, 3, 1, 7), (3, 2, 2, 5)):
        params = make_params(n, p, h)
        for _ in range(8):
            u = [rng.randrange(r) for _ in range(n)]
            if not any(u):
                u[rng.randrange(n)] = 1
            rep = fiber_check(params, r, tuple(u))
            assert len(rep.fiber) == params.q
            assert rep.equal
            assert set(rep.orbit) <= set(rep.fiber)


def test_fiber_matches_brute_scan():
    # the walk over q-th-power classes of the pure coordinates against the
    # scan of all of F_r^n, three primes r = 1 mod q per (n, p, h)
    rng = random.Random(67)
    for n, p, h in ((2, 2, 1), (3, 2, 1), (4, 2, 1), (3, 3, 1), (2, 2, 2),
                    (3, 2, 2), (2, 5, 1)):
        params = make_params(n, p, h)
        q = params.q
        primes = [r for r in range(3, 100) if is_prime(r) and (r - 1) % q == 0]
        for r in primes[:3]:
            field = PrimeField(r)
            for trial in range(3):
                u = [rng.randrange(1, r) for _ in range(n)]
                if trial:  # zero coordinates
                    for j in rng.sample(range(n), rng.randrange(1, n)):
                        u[j] = 0
                w = parametrize(params, u, field)
                brute = tuple(
                    v for v in product(range(r), repeat=n)
                    if parametrize(params, v, field) == w
                )
                assert fiber_check(params, r, tuple(u)).fiber == brute, (n, p, h, r, u)


def test_fiber_matches_the_scan_of_f_r():
    # mu_q from one generator and the roots u_j*mu_q against a table of
    # q-th powers over all of F_r and a scan of F_r^* for mu_q, at every
    # q <= 16 and the first four primes r = 1 mod q
    rng = random.Random(71)
    for p, h in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1),
                 (7, 1), (11, 1), (13, 1)):
        q = p**h
        primes = [r for r in range(3, 400) if is_prime(r) and (r - 1) % q == 0]
        for n in (2, 3) if q <= 4 else (2,):
            params = make_params(n, p, h)
            for r in primes[:4]:
                for _ in range(3):
                    u = [rng.randrange(r) for _ in range(n)]
                    u[rng.randrange(n)] = rng.randrange(1, r)
                    rep = fiber_check(params, r, tuple(u))
                    got = rep.fiber, rep.orbit, rep.roots_of_unity
                    assert got == oracles.fiber_scan(params, r, rep.u), (n, p, h, r, u)


@pytest.mark.parametrize("nph", GRID_T36, ids=lambda nph: "%d%d%d" % nph)
def test_fiber_matches_the_product_oracle_on_the_grid(nph, monkeypatch):
    # the q candidates solved from the first nonzero u_j0 against every
    # product of the roots of u_j^q, fiber order included, at the first
    # two primes r = 1 mod q; one parametrization per candidate and one
    # for the base point
    params = make_params(*nph)
    n, q = params.n, params.q
    rng = random.Random("fibers-%d%d%d" % nph)
    primes = [r for r in range(3, 200) if is_prime(r) and (r - 1) % q == 0]
    calls = []
    real = geometry.parametrize

    def counted(*args):
        calls.append(args)
        return real(*args)

    for r in primes[:2]:
        for trial in range(4):
            u = [rng.randrange(1, r) for _ in range(n)]
            for j in rng.sample(range(n), trial % n):
                u[j] = 0
            want = oracles.fiber_scan(params, r, u)
            monkeypatch.setattr(geometry, "parametrize", counted)
            calls.clear()
            rep = fiber_check(params, r, tuple(u))
            monkeypatch.setattr(geometry, "parametrize", real)
            assert (rep.fiber, rep.orbit, rep.roots_of_unity) == want, (r, u)
            assert len(calls) == q + 1


def test_fiber_at_a_large_prime(params321):
    # nothing is tabulated over F_r: at r = 10^9 + 7 the check holds no
    # more than a few kilobytes
    r = 10**9 + 7
    tracemalloc.start()
    try:
        rep = fiber_check(params321, r, (1, 2, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    assert rep.roots_of_unity == (1, r - 1)
    assert rep.fiber == rep.orbit == ((1, 2, 3), (r - 1, r - 2, r - 3))
    assert rep.equal


def test_orbit_points_parametrize_identically(params321):
    f5 = PrimeField(5)
    u = (2, 3, 1)
    rep = fiber_check(params321, 5, u)
    base = parametrize(params321, u, f5)
    for v in rep.orbit:
        assert parametrize(params321, v, f5) == base


def test_fiber_requires_roots_of_unity(params331):
    with pytest.raises(RootOfUnityError):
        fiber_check(params331, 5, (1, 1, 1))
    # r = p itself never satisfies r = 1 mod q, so the inseparable case
    # is unreachable through this interface
    with pytest.raises(RootOfUnityError):
        fiber_check(params331, 3, (1, 1, 1))


def test_fiber_rejects_zero_point(params321):
    with pytest.raises(ValueError):
        fiber_check(params321, 5, (0, 0, 0))

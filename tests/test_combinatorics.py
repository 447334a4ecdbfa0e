import warnings
from itertools import combinations_with_replacement
from math import comb

import pytest

from conftest import make_params
from veronese import (
    PrimeField,
    VeroneseParams,
    cli,
    combinatorics,
    exponent_vectors,
    index_tuples,
    parametrize,
)
from veronese.combinatorics import exponent_of, pure_tuple


def test_enumeration_frozen(params321):
    assert index_tuples(params321) == (
        (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
    )
    assert exponent_vectors(params321) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )
    assert params321.cardinality() == 6


def test_enumeration_is_sorted_weakly_increasing():
    for n, p, h in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 2, 1)):
        params = make_params(n, p, h)
        ts = index_tuples(params)
        assert list(ts) == sorted(ts)
        assert ts == tuple(
            combinations_with_replacement(range(1, n + 1), params.q)
        )
        for t in ts:
            assert all(a <= b for a, b in zip(t, t[1:]))


def test_cardinality_formula_grid():
    for n in range(1, 7):
        for p, h in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
            params = make_params(n, p, h)
            assert len(index_tuples(params)) == comb(n + params.q - 1, params.q)


def test_tuple_exponent_bijection():
    for n, p, h in ((3, 2, 1), (3, 3, 1), (4, 2, 2)):
        params = make_params(n, p, h)
        vectors = exponent_vectors(params)
        assert len(set(vectors)) == len(vectors)
        for t, a in zip(index_tuples(params), vectors):
            assert exponent_of(t, n) == a
            assert sum(a) == params.q


def test_exponent_of_validates():
    with pytest.raises(ValueError):
        exponent_of((2, 1), 3)
    with pytest.raises(ValueError):
        exponent_of((1, 4), 3)
    with pytest.raises(ValueError):
        exponent_of((0, 1), 3)


def test_pure_tuple(params321):
    assert pure_tuple(params321, 2) == (2, 2)
    params = make_params(3, 2, 2)
    assert pure_tuple(params, 3) == (3, 3, 3, 3)
    with pytest.raises(ValueError):
        pure_tuple(params321, 4)


def test_parametrize_frozen(params321):
    assert parametrize(params321, (1, 2, 3), PrimeField(5)) == (1, 2, 3, 4, 1, 4)
    assert parametrize(params321, (0, 0, 0), PrimeField(5)) == (0,) * 6


def test_parametrize_is_monomial_map(params331):
    f7 = PrimeField(7)
    u = (2, 3, 5)
    w = parametrize(params331, u, f7)
    for t, x in zip(index_tuples(params331), w):
        prod = 1
        for j in t:
            prod = prod * u[j - 1] % 7
        assert x == prod


def test_params_validation():
    with pytest.raises(ValueError):
        VeroneseParams(3, 4, 1)  # not prime
    with pytest.raises(ValueError):
        VeroneseParams(0, 2, 1)
    with pytest.raises(ValueError):
        VeroneseParams(3, 2, 0)
    with pytest.raises(ValueError):
        VeroneseParams(3, 2, 5)  # q = 32 over the default cap
    with pytest.raises(ValueError, match="exceeds the cap"):
        VeroneseParams(3, 3, 10**6)  # a huge h gets the cap message, not q itself
    with pytest.raises(ValueError, match="exceeds the cap 10000"):
        VeroneseParams(100_000, 2, 1)  # |T| = C(100001, 2)
    with pytest.raises(ValueError, match="exceeds the cap"):
        VeroneseParams(10**100, 2, 4)
    assert VeroneseParams(4, 2, 3).cardinality() == 165
    with pytest.warns(UserWarning) as caught:
        VeroneseParams(2, 2, 1)
    # the warning points at the line that built the parameters
    assert [w.filename for w in caught] == [__file__]


def test_params_refuse_bools():
    # True == 1 and hashes as 1, so a bool would share (3, 2, 1)'s caches
    for args in [(3, 2, True), (True, 2, 1), (3, True, 1)]:
        with pytest.raises(ValueError, match="must be a positive integer"):
            VeroneseParams(*args)


def test_q_cap_is_checked_before_the_primality_test(monkeypatch, capsys):
    # q = p^1 past the cap is refused without testing p, however large
    def no_primality_test(m):
        raise AssertionError(f"primality test of {m}")

    monkeypatch.setattr(combinatorics, "is_prime", no_primality_test)
    for p in (18, 1_000_000_000_000_000_003):
        with pytest.raises(ValueError, match=f"q = {p}\\^1 exceeds the cap 16"):
            VeroneseParams(3, p, 1)
    code = cli.main(["enumerate", "--n", "3", "--p", "1000000000000000003", "--h", "1"])
    assert code == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_degenerate_dimensions():
    line = make_params(1, 2, 1)
    assert index_tuples(line) == ((1, 1),)
    assert line.cardinality() == 1

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix

import oracles
from veronese import lattice
from veronese.gluing import SemigroupGens
from veronese.lattice import (
    IntMatrix,
    echelon_basis,
    lattice_intersection,
    smith_normal_form,
)


def check_snf(a: IntMatrix):
    """d is a positive divisibility chain, v is unimodular, and a*v is
    zero past the rank with independent columns before it, so v's
    columns past the rank are a basis of a's integer kernel."""
    res = smith_normal_form(a)
    nr, nc = a.shape
    assert abs(Matrix(res.v.rows).det()) == 1
    av = oracles.matmul(a.rows, res.v.rows)
    assert all(row[j] == 0 for row in av for j in range(res.rank, nc))
    assert Matrix(av)[:, : res.rank].rank() == res.rank
    positive = [d for d in res.d if d]
    assert all(d > 0 for d in positive)
    for x, y in zip(positive, positive[1:]):
        assert y % x == 0
    assert len(positive) == res.rank
    assert res.d[: res.rank] == tuple(positive)
    return res


# columns 2e1, 2e2, 2e3, e1+e2
EXPONENT_COLUMNS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0))


def test_snf_of_degree_two_exponent_columns():
    a = IntMatrix.from_cols(EXPONENT_COLUMNS)
    res = check_snf(a)
    assert tuple(d for d in res.d if d) == (1, 2, 2)
    # two independent oracles agree
    assert oracles.invariant_factors_minor_gcd(a.rows) == [1, 2, 2]
    assert oracles.snf_diagonal_sympy(a.rows) == [1, 2, 2]


def test_snf_random_matrices_match_minor_gcds():
    rng = random.Random(7)
    for _ in range(60):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        a = IntMatrix(
            [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        )
        res = check_snf(a)
        positive = [d for d in res.d if d]
        assert positive == oracles.invariant_factors_minor_gcd(a.rows)
        assert positive == oracles.snf_diagonal_sympy(a.rows)


def test_snf_zero_and_identity():
    z = IntMatrix([[0, 0], [0, 0]])
    assert check_snf(z).d == (0, 0)
    i3 = IntMatrix(oracles.identity(3))
    assert check_snf(i3).d == (1, 1, 1)


def test_echelon_basis_spans_same_lattice():
    rng = random.Random(19)
    for _ in range(40):
        dim = rng.randint(1, 4)
        cols = [
            tuple(rng.randint(-4, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 4))
        ]
        a = IntMatrix.from_cols(cols)
        new_basis = echelon_basis(cols)
        rank = smith_normal_form(a).rank
        assert len(new_basis) == rank
        for c in cols:
            if not new_basis:
                assert all(x == 0 for x in c)
            else:
                assert oracles.lattice_member_sympy(new_basis, c)
        for c in new_basis:
            assert oracles.lattice_member_sympy(cols, c)


def test_lattice_intersection_frozen(monkeypatch):
    calls = []
    monkeypatch.setattr(
        lattice, "smith_normal_form", lambda a: calls.append(a) or smith_normal_form(a)
    )
    even = IntMatrix.from_cols([(2, 0), (0, 2)])
    diag = IntMatrix.from_cols([(1, 1)])
    assert lattice_intersection(even, diag) == [(2, 2)]
    assert len(calls) == 1  # the kernel; the basis is an echelon basis


def test_lattice_intersection_contains_exactly_common_vectors():
    rng = random.Random(23)
    for _ in range(30):
        dim = rng.randint(1, 3)
        mk = lambda: [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(1, 3))
        ]
        a, b = mk(), mk()
        inter = lattice_intersection(IntMatrix.from_cols(a), IntMatrix.from_cols(b))
        for g in inter:
            assert oracles.lattice_member_sympy(a, g)
            assert oracles.lattice_member_sympy(b, g)
        # random small vectors: in both lattices iff in the intersection
        for _ in range(20):
            v = tuple(rng.randint(-4, 4) for _ in range(dim))
            both = all(oracles.lattice_member_sympy(c, v) for c in (a, b))
            if not inter:
                assert not both or all(x == 0 for x in v)
            else:
                assert both == oracles.lattice_member_sympy(inter, v)


@st.composite
def _peel_cases(draw):
    """(rest, beta): nonnegative nonzero generators in dimension 1-4."""
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 6)] * dim).filter(any)
    return draw(st.lists(vec, min_size=1, max_size=5)), draw(vec)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_peel_cases())
@example(([(2, 0), (0, 2)], (1, 1)))  # torsion: order 2
@example(([(3, 0, 0), (0, 1, 0), (1, 0, 3)], (2, 1, 1)))  # order 9
@example(([(1, 0, 0), (0, 1, 0)], (0, 0, 1)))  # outside the span
def test_echelon_order_matches_snf_intersection(case):
    rest, beta = case
    basis = echelon_basis(rest)
    pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
    assert pivots == sorted(set(pivots))
    assert all(b[i] > 0 for b, i in zip(basis, pivots))
    d = oracles.quotient_order(basis, beta)
    inter = lattice_intersection(
        IntMatrix.from_cols(rest), IntMatrix.from_cols([beta])
    )
    if d == 0:
        assert inter == []
    else:
        d_beta = tuple(d * x for x in beta)
        assert inter in ([d_beta], [tuple(-x for x in d_beta)])
    # freeness, wide sets included, is the SNF rank test
    gens = SemigroupGens.of(dict.fromkeys(rest + [beta]))
    snf_rank = smith_normal_form(gens.matrix()).rank
    assert gens.is_free() == (snf_rank == len(gens.gens))


def test_int_matrix_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_cols([(1, 2), (3,)])

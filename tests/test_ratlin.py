"""Exact rational linear algebra: arithmetic, determinants, solvers."""
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grwalk.ratlin import (RatMatrix, SingularMatrixError, format_rational,
                           parse_rational, rat)

rationals = st.builds(rat, st.integers(-20, 20), st.integers(1, 12))
# Half zeros: zero leading entries force row swaps even at full rank.
sparse_rationals = st.one_of(st.just(rat(0)), rationals)


def mat_strategy(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(RatMatrix)


@st.composite
def low_rank_matrices(draw, max_rows=6, max_cols=7, square=False):
    """Sparse products B*C of inner dimension k <= min(rows, cols), with
    some columns zeroed, so that the echelon has to swap rows and skip
    pivot columns."""
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    k = draw(st.integers(0, min(rows, cols)))
    b = draw(st.lists(st.lists(sparse_rationals, min_size=k, max_size=k),
                      min_size=rows, max_size=rows))
    c = draw(st.lists(st.lists(sparse_rationals, min_size=cols, max_size=cols),
                      min_size=k, max_size=k))
    zeroed = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 2))
    return RatMatrix([[rat(0) if j in zeroed else
                       sum((b[i][t] * c[t][j] for t in range(k)), rat(0))
                       for j in range(cols)] for i in range(rows)])


sparse_square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(sparse_rationals, min_size=n, max_size=n),
                       min_size=n, max_size=n)).map(RatMatrix)


def leibniz_det(a):
    """Determinant as the signed sum over all permutations."""
    total = rat(0)
    for perm in permutations(range(a.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = prod((a.data[i][perm[i]] for i in range(a.rows)), start=rat(1))
        total += -term if inversions % 2 else term
    return total


def test_rat_basics():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat(2, 4) == rat(1, 2)
    assert format_rational(rat(-3, 6)) == "-1/2"
    assert format_rational(rat(4, 2)) == "2"


def test_parse_rational():
    assert parse_rational("5/12") == rat(5, 12)
    assert parse_rational("-7") == rat(-7)
    assert parse_rational("+3/4") == rat(3, 4)
    for bad in ("1.5", "a/b", "1/ 2", "", "1/2/3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_identity_and_shape():
    i3 = RatMatrix.identity(3)
    assert i3.is_identity()
    z = RatMatrix.zeros(2, 3)
    assert z.rows == 2 and z.cols == 3


@given(mat_strategy(3), mat_strategy(3))
@settings(max_examples=40)
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(mat_strategy(3), mat_strategy(3))
@settings(max_examples=25)
def test_det_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


@given(mat_strategy(3))
@settings(max_examples=25)
def test_det_transpose(a):
    assert a.det() == a.transpose().det()


@given(mat_strategy(3), st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=40)
def test_solve_roundtrip(a, x):
    b = a.mul_vec(x)
    try:
        y = a.solve(b)
    except SingularMatrixError:
        assert a.det() == 0
        return
    assert a.mul_vec(y) == b


def test_solve_cramer_oracle():
    # Oracle: Cramer's rule by hand.  A = [[2,1,0],[1,3,1],[0,1,2]],
    # b = (1,0,1): det A = 8 and the column-replaced determinants are
    # 6, -4, 6, so x = (3/4, -1/2, 3/4).
    a = RatMatrix([[rat(2), rat(1), rat(0)],
                   [rat(1), rat(3), rat(1)],
                   [rat(0), rat(1), rat(2)]])
    b = [rat(1), rat(0), rat(1)]
    assert a.det() == rat(8)
    x = a.solve(b)
    assert x == [rat(3, 4), rat(-1, 2), rat(3, 4)]
    assert a.mul_vec(x) == b


def test_minor_and_rank():
    a = RatMatrix([[rat(1), rat(2), rat(3)],
                   [rat(2), rat(4), rat(6)],
                   [rat(0), rat(1), rat(1)]])
    assert a.rank() == 2
    assert a.det() == rat(0)
    m = a.minor([1], [2])
    assert m.data == [[rat(1), rat(2)], [rat(0), rat(1)]]


def test_solve_many_shares_reduction():
    a = RatMatrix([[rat(1), rat(1)], [rat(0), rat(1)]])
    xs = a.solve_many([[rat(3), rat(1)], [rat(0), rat(2)]])
    assert xs == [[rat(2), rat(1)], [rat(-2), rat(2)]]


def test_singular_solve_raises_with_rank():
    a = RatMatrix([[rat(1), rat(1)], [rat(1), rat(1)]])
    with pytest.raises(SingularMatrixError) as err:
        a.solve_many([[rat(1), rat(0)]])
    assert err.value.rank == 1


def test_nullspace():
    a = RatMatrix([[rat(1), rat(1)], [rat(1), rat(1)]])
    basis = a.nullspace()
    assert len(basis) == 1
    assert a.mul_vec(basis[0]) == [rat(0), rat(0)]


def test_min_norm_solution_is_kernel_orthogonal():
    # Singular but consistent: x + y = 2 has solution line; the
    # minimum-norm point is (1, 1).
    a = RatMatrix([[rat(1), rat(1)], [rat(1), rat(1)]])
    x = a.solve_min_norm([rat(2), rat(2)])
    assert x == [rat(1), rat(1)]
    with pytest.raises(SingularMatrixError):
        a.solve_min_norm([rat(2), rat(3)])


@given(st.one_of(mat_strategy(3), low_rank_matrices()),
       st.lists(rationals, min_size=7, max_size=7))
@settings(max_examples=80)
def test_min_norm_consistency(a, x):
    b = a.mul_vec(x[:a.cols])
    y = a.solve_min_norm(b)
    # Must solve the system and be orthogonal to the kernel.
    assert a.mul_vec(y) == b
    for k in a.nullspace():
        assert sum((yi * ki for yi, ki in zip(y, k)), rat(0)) == rat(0)


@given(low_rank_matrices())
@settings(max_examples=60)
def test_rank_nullity_on_low_rank_products(a):
    r = a.rank()
    assert r == a.transpose().rank()
    basis = a.nullspace()
    assert r + len(basis) == a.cols
    for v in basis:
        assert a.mul_vec(v) == [rat(0)] * a.rows


@given(st.one_of(low_rank_matrices(max_rows=4, square=True),
                 sparse_square_matrices))
@settings(max_examples=80)
def test_det_matches_leibniz_oracle(a):
    assert a.det() == leibniz_det(a)


@given(low_rank_matrices(max_rows=6, square=True),
       st.lists(rationals, min_size=6, max_size=6))
@settings(max_examples=60)
def test_solve_many_singular_exactly_when_det_vanishes(a, b):
    b = b[:a.rows]
    try:
        x = a.solve_many([b])[0]
    except SingularMatrixError as err:
        assert a.det() == 0
        assert (err.rank, err.size) == (a.rank(), a.rows)
        return
    assert a.det() != 0
    assert a.mul_vec(x) == b


def test_det_of_empty_matrix_is_one():
    assert RatMatrix([]).det() == rat(1)

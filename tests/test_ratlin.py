"""Exact rational linear algebra: arithmetic, determinants, solvers."""
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grwalk.ratlin as ratlin
from grwalk.ratlin import (RatMatrix, SingularMatrixError, format_rational,
                           parse_rational, rat, rat_dot)

rationals = st.builds(rat, st.integers(-20, 20), st.integers(1, 12))
# Half zeros: zero leading entries force row swaps even at full rank.
sparse_rationals = st.one_of(st.just(rat(0)), rationals)


def mat_strategy(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(RatMatrix)


@st.composite
def low_rank_matrices(draw, max_rows=6, max_cols=7, square=False,
                      deficient=False):
    """Sparse products B*C of inner dimension k <= min(rows, cols), with
    some columns zeroed, so that the echelon has to swap rows and skip
    pivot columns.  ``deficient`` keeps k below min(rows, cols), so the
    rank is too."""
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    k = draw(st.integers(0, min(rows, cols) - deficient))
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


def test_construction_makes_every_entry_a_fraction():
    class Half(Fraction):
        pass

    m = RatMatrix([[1, True, rat(2, 4)], [Half(3, 6), -5, rat(0)]])
    assert m.data == [[1, 1, rat(1, 2)], [rat(1, 2), -5, 0]]
    assert all(type(x) is Fraction for row in m.data for x in row)
    with pytest.raises(TypeError):
        RatMatrix([[1.5]])


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
    for rows, cols in (([3], [0]), ([0], [3]), ([-1], [0])):
        with pytest.raises(ValueError, match="outside"):
            a.minor(rows, cols)


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
    x = a.solve_min_norm_many([[rat(2), rat(2)]])[0]
    assert x == [rat(1), rat(1)]
    with pytest.raises(SingularMatrixError):
        a.solve_min_norm_many([[rat(2), rat(3)]])[0]


@given(st.one_of(mat_strategy(3), low_rank_matrices()),
       st.lists(rationals, min_size=7, max_size=7))
@settings(max_examples=80)
def test_min_norm_consistency(a, x):
    b = a.mul_vec(x[:a.cols])
    y = a.solve_min_norm_many([b])[0]
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


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), rat(0))


def _reference_solve_min_norm_many(a, rhs_columns):
    """RatMatrix.solve_min_norm_many with the kernel read through
    nullspace() and the Gram projection done in Fractions."""
    basis, particulars = a._augmented_kernel(rhs_columns)
    if len(particulars) < len(rhs_columns):
        raise SingularMatrixError(a.cols - len(basis), a.cols)
    if not basis:
        return particulars
    d = len(basis)
    gram = RatMatrix([[_dot(basis[i], basis[j]) for j in range(d)]
                      for i in range(d)])
    proj_rhs = [[_dot(basis[i], x) for i in range(d)] for x in particulars]
    coeffs = gram.solve_many(proj_rhs)
    solutions = []
    for x, c in zip(particulars, coeffs):
        for ci, vec in zip(c, basis):
            if ci != 0:
                x = [xi - ci * vi for xi, vi in zip(x, vec)]
        solutions.append(x)
    return solutions


def _outcome(solver, a, rhs):
    try:
        return solver(a, rhs)
    except SingularMatrixError as err:
        return ("singular", err.rank, err.size)


@st.composite
def min_norm_systems(draw):
    """A matrix up to 8x8 (square or not, half of them rank-deficient by
    construction), up to three consistent right-hand sides A y, and, when
    A has a left kernel, the index at which an inconsistent one A y + w
    (w^T A = 0, w != 0) is inserted, or None."""
    a = draw(st.one_of(
        low_rank_matrices(max_rows=8, max_cols=8),
        low_rank_matrices(max_rows=8, max_cols=8, deficient=True),
        low_rank_matrices(max_rows=8, square=True, deficient=True)))
    ys = draw(st.lists(st.lists(sparse_rationals, min_size=a.cols,
                                max_size=a.cols), max_size=3))
    rhs = [a.mul_vec(y) for y in ys]
    left_kernel = a.transpose().nullspace()
    bad = None
    if left_kernel and draw(st.booleans()):
        bad = draw(st.integers(0, len(rhs)))
        y = draw(st.lists(sparse_rationals, min_size=a.cols,
                          max_size=a.cols))
        w = left_kernel[draw(st.integers(0, len(left_kernel) - 1))]
        rhs.insert(bad, [x + wi for x, wi in zip(a.mul_vec(y), w)])
    return a, rhs, bad


@given(min_norm_systems())
@settings(max_examples=150, deadline=None)
def test_integer_min_norm_equals_fraction_reference(system):
    a, rhs, bad = system
    got = _outcome(RatMatrix.solve_min_norm_many, a, rhs)
    assert got == _outcome(_reference_solve_min_norm_many, a, rhs)
    if bad is None:
        assert len(got) == len(rhs)
        assert all(type(x) is Fraction for col in got for x in col)
        assert [a.mul_vec(x) for x in got] == rhs
    else:
        assert got == ("singular", a.rank(), a.cols)
    assert a.solve_min_norm_many([]) == [] == \
        _reference_solve_min_norm_many(a, [])


def test_min_norm_rejects_wrong_rhs_length():
    a = RatMatrix([[rat(1), rat(1)], [rat(1), rat(1)]])
    with pytest.raises(ValueError, match="right-hand-side length"):
        a.solve_min_norm_many([[rat(1)]])


def test_rat_dot_is_one_exact_fraction():
    u = [rat(1, 2), 3, rat(-2, 9), rat(0)]
    v = [rat(1, 3), rat(5, 4), 6, rat(7, 11)]
    got = rat_dot(u, v)
    assert got == _dot(u, v) == rat(1, 6) + rat(15, 4) - rat(4, 3)
    assert type(got) is Fraction
    assert type(rat_dot([], [])) is Fraction and rat_dot([], []) == 0
    assert type(rat_dot([2], [3])) is Fraction
    assert rat_dot(u, v, 6) == got / 6 and type(rat_dot(u, v, 6)) is Fraction
    assert rat_dot([rat(1, 2)], [rat(1, 2)], 2) == rat(1, 8)


def corrupt_first_kernel_vector(monkeypatch):
    """Make ratlin._kernel return its first vector with entry 0 off by one."""
    kernel = ratlin._kernel

    def corrupted(rows, pivots, cols):
        d, vectors = kernel(rows, pivots, cols)
        if vectors:
            vectors[0][0] += 1
        return d, vectors

    monkeypatch.setattr(ratlin, "_kernel", corrupted)


def corrupt_first_reduced_row(monkeypatch):
    """Make ratlin._bareiss replace its first row by one whose last entry
    is off by one, as a faulty reduction would."""
    bareiss = ratlin._bareiss

    def corrupted(rows):
        result = bareiss(rows)
        rows[0] = rows[0][:-1] + [rows[0][-1] + 1]
        return result

    monkeypatch.setattr(ratlin, "_bareiss", corrupted)


SINGULAR = RatMatrix([[rat(1), rat(1)], [rat(1), rat(1)]])
REGULAR = RatMatrix([[rat(2), rat(1)], [rat(1, 3), rat(3)]])


@pytest.mark.parametrize("call", [
    lambda: REGULAR.solve([rat(1), rat(2)]),
    lambda: REGULAR.solve_many([[rat(1), rat(2)], [rat(0), rat(1)]]),
    lambda: SINGULAR.nullspace(),
    lambda: REGULAR.solve_min_norm_many([[rat(1), rat(2)]]),
    lambda: SINGULAR.solve_min_norm_many([[rat(2), rat(2)]]),
], ids=["solve", "solve_many", "nullspace", "solve_min_norm_many",
        "solve_min_norm_many_singular"])
@pytest.mark.parametrize("corrupt", [corrupt_first_kernel_vector,
                                     corrupt_first_reduced_row])
def test_corrupted_elimination_is_caught(call, corrupt, monkeypatch):
    # The check reads the cleared rows, not the reduced ones, so a faulty
    # reduction is caught as well as a faulty back-substitution.
    call()
    corrupt(monkeypatch)
    with pytest.raises(RuntimeError, match="nonzero residual"):
        call()


def zero_gram_coefficients(monkeypatch):
    """Make solve_many, which min-norm solves call only for the Gram
    system, return zero coefficients: the result then still solves the
    system but is not projected off the kernel."""
    monkeypatch.setattr(RatMatrix, "solve_many", lambda self, rhs_columns:
                        [[rat(0)] * self.cols for _ in rhs_columns])


def test_unprojected_min_norm_solution_is_caught(monkeypatch):
    b = [rat(2), rat(2)]
    assert SINGULAR.solve_min_norm_many([b]) == [[rat(1), rat(1)]]
    zero_gram_coefficients(monkeypatch)
    with pytest.raises(RuntimeError, match="nonzero residual"):
        SINGULAR.solve_min_norm_many([b])

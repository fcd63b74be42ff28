"""Exact rational scalars and dense matrices over them.

Every exact route in the package runs on top of this module; floating
point appears only in the time-domain simulator.  Scalars are
fractions.Fraction; eliminations clear denominators and run on Python
ints.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import lcm


def rat(p=0, q=1):
    """The exact rational p/q."""
    return Fraction(p, q)


RAT_ZERO = rat(0)
RAT_ONE = rat(1)

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_rational(text):
    """Parse ``p`` or ``p/q`` with an optional leading sign."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"malformed rational: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return rat(int(num), int(den))
    return rat(int(s))


def format_rational(x):
    """Canonical rendering: ``p/q``, or ``p`` when the denominator is 1."""
    return str(x)


class SingularMatrixError(ValueError):
    """An exact solve met a singular matrix."""

    def __init__(self, rank, size):
        self.rank = rank
        self.size = size
        super().__init__(f"singular matrix: rank {rank} < {size}")


class RatMatrix:
    """Dense matrix over exact rationals.

    Storage is dense and row-major; the largest systems here are the
    2m-by-2m arc operators (42x42 for K7, up to 56x56 for 8-vertex
    graphs).  All eliminations share one fraction-free echelon routine:
    rank and det read its pivots, nullspace back-substitutes from it, and
    a solve of ``self @ x = b`` reads its solutions off the kernel of
    ``[self | -b]``.  Pivoting picks the first nonzero entry in column
    order; exact arithmetic needs no numerical pivoting and this keeps
    results deterministic.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.rows = len(data)
        self.cols = len(data[0]) if self.rows else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self.data = [[rat(x) for x in row] for row in data]

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[RAT_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = RAT_ONE
        return m

    def copy(self):
        return RatMatrix(self.data)

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def __add__(self, other):
        self._check_same_shape(other)
        return RatMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return RatMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.data))
        return RatMatrix([[sum((a * b for a, b in zip(row, col)), RAT_ZERO)
                           for col in ot] for row in self.data])

    def scale(self, s):
        s = rat(s)
        return RatMatrix([[s * x for x in row] for row in self.data])

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [sum((a * b for a, b in zip(row, v)), RAT_ZERO) for row in self.data]

    def transpose(self):
        return RatMatrix([list(col) for col in zip(*self.data)])

    def minor(self, drop_rows=(), drop_cols=()):
        """Submatrix with the given row/column indices removed (0-based)."""
        dr, dc = set(drop_rows), set(drop_cols)
        return RatMatrix([[x for j, x in enumerate(row) if j not in dc]
                          for i, row in enumerate(self.data) if i not in dr])

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == (RAT_ONE if i == j else RAT_ZERO)
                   for i in range(self.rows) for j in range(self.cols))

    def rank(self):
        return len(_echelon(self.data)[1])

    def det(self):
        """Exact determinant; 0 for singular input."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rows, pivots, scale, sign = _echelon(self.data)
        if len(pivots) < self.rows:
            return RAT_ZERO
        return rat(sign * rows[-1][-1], scale) if rows else RAT_ONE

    def _augmented_kernel(self, rhs_columns):
        """Kernel of ``[self | -b_1 ... -b_k]``, split into the kernel of
        self and the particular solutions of ``self @ x = b_t``.

        A free coefficient column yields a kernel vector of self (its
        right-hand-side part is zero); a free right-hand-side column t
        yields the solution of ``self @ x = b_t`` that vanishes on the
        free coefficient columns.  Fewer than k particular solutions means
        some right-hand side is inconsistent.
        """
        for col in rhs_columns:
            if len(col) != self.rows:
                raise ValueError("right-hand-side length mismatch")
        n = self.cols
        aug = RatMatrix([row + [-col[i] for col in rhs_columns]
                         for i, row in enumerate(self.data)])
        kernel, particulars = [], []
        for vec in aug.nullspace():
            if any(vec[n:]):
                particulars.append(vec[:n])
            else:
                kernel.append(vec[:n])
        return kernel, particulars

    def solve_many(self, rhs_columns):
        """Solve ``self @ x = b`` for several right-hand-side columns at once.

        One reduction is shared by all columns; raises SingularMatrixError
        (with the true rank) if self is singular.  Returns the solution
        columns in order.
        """
        if self.rows != self.cols:
            raise ValueError("solve needs a square matrix")
        kernel, particulars = self._augmented_kernel(rhs_columns)
        if kernel:
            raise SingularMatrixError(self.cols - len(kernel), self.cols)
        return particulars

    def solve(self, b):
        """Exact solution of ``self @ x = b``, residual-verified before return."""
        x = self.solve_many([b])[0]
        residual = self.mul_vec(x)
        if any(r != rat(bi) for r, bi in zip(residual, b)):
            raise RuntimeError("exact solver produced a nonzero residual")
        return x

    def nullspace(self):
        """A basis (list of column vectors) of the kernel of self.

        One vector per free column of the echelon form: 1 at that column,
        0 at the other free columns, in increasing free-column order.
        """
        rows, pivots, _, _ = _echelon(self.data)
        cols = self.cols
        # Scaled by the last pivot, the minor of the pivot columns, every
        # basis vector is integral, so the back-substitution stays in ints
        # and each division is exact.
        d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
        pivot_set = set(pivots)
        basis = []
        for free in range(cols):
            if free in pivot_set:
                continue
            vec = [0] * cols
            vec[free] = d
            for row, pcol in zip(reversed(rows[:len(pivots)]),
                                 reversed(pivots)):
                s = sum(row[j] * vec[j] for j in range(pcol + 1, cols))
                vec[pcol] = -s // row[pcol]
            basis.append([rat(x, d) for x in vec])
        return basis

    def solve_min_norm_many(self, rhs_columns):
        """Minimum-norm (kernel-orthogonal) solutions of ``self @ x = b``.

        For a nonsingular system this coincides with solve_many; for a
        consistent singular system it returns the unique solution
        orthogonal to the kernel.  Raises SingularMatrixError when any
        right-hand side is inconsistent.  One reduction yields both the
        particular solutions and the kernel basis.
        """
        basis, particulars = self._augmented_kernel(rhs_columns)
        if len(particulars) < len(rhs_columns):
            raise SingularMatrixError(self.cols - len(basis), self.cols)
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

    def solve_min_norm(self, b):
        """Minimum-norm solution of ``self @ x = b``, residual-verified."""
        x = self.solve_min_norm_many([b])[0]
        residual = self.mul_vec(x)
        if any(r != rat(bi) for r, bi in zip(residual, b)):
            raise RuntimeError("exact solver produced a nonzero residual")
        return x


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), RAT_ZERO)


def _echelon(data):
    """Fraction-free row echelon form of a rational matrix (Bareiss 1968).

    Each row is first multiplied by the lcm of its denominators, so the
    elimination runs on Python ints; Bareiss' division by the previous
    pivot is exact.  Pivots are the first nonzero entry in column order
    (columns with none are skipped), which keeps results deterministic.

    Returns (rows, pivots, scale, sign): the integer echelon rows, the
    pivot column of each leading row, the product of the row multipliers
    and the sign of the row permutation.  The k-th pivot is the leading
    k-by-k minor of the permuted integer matrix on the pivot columns, so
    a square nonsingular matrix has det = sign * last pivot / scale.
    """
    rows = []
    scale = 1
    for row in data:
        m = lcm(*(x.denominator for x in row))
        scale *= m
        rows.append([x.numerator * (m // x.denominator) for x in row])
    nrows = len(rows)
    sign = 1
    pivots = []
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[col]
        for i in range(r + 1, nrows):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // prev
                       for a, b in zip(rows[i], prow)]
        prev = p
        pivots.append(col)
    return rows, pivots, scale, sign

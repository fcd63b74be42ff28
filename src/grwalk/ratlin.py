"""Exact rational scalars and dense matrices over them.

Every exact route in the package runs on top of this module; floating
point appears only in the time-domain simulator.  Scalars are
fractions.Fraction.  Eliminations clear denominators and run on Python
ints: one integer kernel (denominator clearing, the Bareiss echelon and
one back-substitution to integer vectors over a common denominator)
serves rank, det, nullspace and the solvers.  Every kernel vector and
solution is checked on ints against the rows it was reduced from before
one Fraction per entry is built; rat_dot sums products the same way.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul


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
    graphs).  All eliminations share one fraction-free integer echelon:
    rank and det read its pivots, and the back-substitution turns it into
    integer kernel vectors over one denominator, each checked against
    the cleared rows.  A solve reads its solutions off the kernel of
    ``[self | -b]``; the minimum-norm solve projects them onto the
    kernel's orthogonal complement in integers and checks them against
    ``[self | -B]`` and the kernel.  Pivoting picks the first nonzero
    entry in column order; exact arithmetic needs no numerical pivoting
    and this keeps results deterministic.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.rows = len(data)
        self.cols = len(data[0]) if self.rows else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        # Fraction(x, 1) renormalises even a Fraction through the generic
        # Rational path; entries that already are Fractions are kept.
        self.data = [[x if type(x) is Fraction else rat(x) for x in row]
                     for row in data]

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[RAT_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = RAT_ONE
        return m

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def __mul__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.data))
        return RatMatrix([[sum((a * b for a, b in zip(row, col)), RAT_ZERO)
                           for col in ot] for row in self.data])

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [sum((a * b for a, b in zip(row, v) if a), RAT_ZERO)
                for row in self.data]

    def transpose(self):
        return RatMatrix([list(col) for col in zip(*self.data)])

    def minor(self, drop_rows=(), drop_cols=()):
        """Submatrix with the given row/column indices removed (0-based)."""
        dr, dc = set(drop_rows), set(drop_cols)
        if not (dr <= set(range(self.rows)) and dc <= set(range(self.cols))):
            raise ValueError("minor index outside the matrix")
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
        """Exact solution of ``self @ x = b``."""
        return self.solve_many([b])[0]

    def nullspace(self):
        """A basis (list of column vectors) of the kernel of self.

        One vector per free column of the echelon form: 1 at that column,
        0 at the other free columns, in increasing free-column order.
        """
        rows, _ = _clear(self.data)
        cleared = rows[:]
        pivots, _ = _bareiss(rows)
        d, basis = _kernel(rows, pivots, self.cols)
        _check_residual(cleared, basis)
        return [[rat(x, d) for x in vec] for vec in basis]

    def solve_min_norm_many(self, rhs_columns):
        """Minimum-norm (kernel-orthogonal) solutions of ``self @ x = b``.

        For a nonsingular system this coincides with solve_many; for a
        consistent singular system it returns the unique solution
        orthogonal to the kernel.  Raises SingularMatrixError when any
        right-hand side is inconsistent.  One reduction of
        ``[self | -b_1 ... -b_k]`` yields both the particular solutions
        and the kernel basis, as integer vectors over one denominator;
        the projection runs on ints and only the small Gram system is
        solved over the rationals.
        """
        for col in rhs_columns:
            if len(col) != self.rows:
                raise ValueError("right-hand-side length mismatch")
        n, k = self.cols, len(rhs_columns)
        rhs = [[x if type(x) is Fraction else rat(x) for x in col]
               for col in rhs_columns]
        rows, _ = _clear([row + [col[i] for col in rhs]
                          for i, row in enumerate(self.data)])
        for row in rows:
            row[n:] = [-x for x in row[n:]]
        cleared = rows[:]
        pivots, _ = _bareiss(rows)
        rank = sum(1 for p in pivots if p < n)
        if len(pivots) > rank:
            raise SingularMatrixError(rank, n)
        d, vecs = _kernel(rows, pivots, n + k)
        # The free columns below n come first: kernel vectors of self,
        # each divided by its content (the projection ignores their
        # scale); then d (P_t / d, e_t) for each right-hand side t.
        basis = []
        for v in vecs[:n - rank]:
            g = gcd(*v)
            basis.append([x // g for x in v[:n]])
        particulars = vecs[n - rank:]
        coeffs = [[]] * k
        if basis:
            # x = P / d - sum_i c_i B_i with (B^T B) c = B^T P / d, kept
            # as the kernel vector q (x, e_t) of [self | -B].
            gram = [[0] * len(basis) for _ in basis]
            for i, u in enumerate(basis):
                for j in range(i, len(basis)):
                    gram[i][j] = gram[j][i] = sum(map(mul, u, basis[j]))
            coeffs = RatMatrix(gram).solve_many(
                [[rat(sum(map(mul, u, p)), d) for u in basis]
                 for p in particulars])
        solutions = []
        for p, c in zip(particulars, coeffs):
            q = lcm(d, *(ci.denominator for ci in c))
            x = [pi * (q // d) for pi in p]
            for ci, u in zip(c, basis):
                if ci:
                    f = ci.numerator * (q // ci.denominator)
                    x[:n] = [xi - f * ui for xi, ui in zip(x, u)]
            solutions.append(x)
        _check_residual(cleared + basis, solutions)
        return [[rat(xi, x[n + t]) for xi in x[:n]]
                for t, x in enumerate(solutions)]


def rat_dot(u, v, divisor=1):
    """The exact sum of u_i * v_i, divided by the int ``divisor``, taken
    over one common denominator so that only the result is a Fraction.
    Entries are Fractions or ints."""
    terms = [(a.numerator * b.numerator, a.denominator * b.denominator)
             for a, b in zip(u, v)]
    den = lcm(*(q for _, q in terms))
    return Fraction(sum(p * (den // q) for p, q in terms), den * divisor)


def _clear(data):
    """Integer rows of a rational matrix: each row multiplied by the lcm of
    its denominators.  Returns (rows, the product of the multipliers)."""
    rows = []
    scale = 1
    for row in data:
        dens = [x.denominator for x in row]
        m = lcm(*dens)
        scale *= m
        rows.append([x.numerator * (m // q) for x, q in zip(row, dens)])
    return rows, scale


def _bareiss(rows):
    """Fraction-free row echelon form of integer rows, in place (Bareiss
    1968); the division by the previous pivot is exact.  Pivots are the
    first nonzero entry in column order (columns with none are skipped),
    which keeps results deterministic.  Rows are swapped and replaced in
    the list, never edited, so a shallow copy of the list taken before
    keeps the cleared rows.

    Returns (pivots, sign): the pivot column of each leading row and the
    sign of the row permutation.  The k-th pivot is the leading k-by-k
    minor of the permuted matrix on the pivot columns.
    """
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
    return pivots, sign


def _echelon(data):
    """The integer echelon form of a rational matrix: (rows, pivots,
    scale, sign) from _clear and _bareiss.  A square nonsingular matrix
    has det = sign * last pivot / scale."""
    rows, scale = _clear(data)
    pivots, sign = _bareiss(rows)
    return rows, pivots, scale, sign


def _kernel(rows, pivots, cols):
    """Back-substitution from an integer echelon form with ``cols``
    columns: (d, vectors), where vector / d is the kernel basis vector of
    one free column (1 there, 0 at the other free columns), in increasing
    free-column order.

    d is the last pivot, the minor of the pivot columns; scaled by it
    every basis vector is integral, so each division here is exact.
    """
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    pivot_set = set(pivots)
    steps = [(pcol, row[pcol], row[pcol + 1:])
             for row, pcol in zip(reversed(rows[:len(pivots)]),
                                  reversed(pivots))]
    vectors = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [0] * cols
        vec[free] = d
        for pcol, p, tail in steps:
            vec[pcol] = -sum(map(mul, tail, vec[pcol + 1:])) // p
        vectors.append(vec)
    return d, vectors


def _check_residual(rows, vectors):
    """Raise RuntimeError unless each integer row is orthogonal to each
    vector (a shorter row reads its prefix): exact residuals, per entry."""
    for vec in vectors:
        for row in rows:
            if sum(map(mul, row, vec)):
                raise RuntimeError("exact solver produced a nonzero residual")

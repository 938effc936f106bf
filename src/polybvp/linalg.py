"""Small dense real vectors and matrices, and one linear solver.

Everything in this package runs at desk scale (systems below ~40x40), so
these are deliberately plain: row-major storage and Gaussian elimination
with partial pivoting.  Values are immutable after construction and
always finite.

A matrix the program computes may carry row extents, one (start, end)
per row: the row is +0.0 outside columns start..end-1, no entry is -0.0,
and the starts never decrease down the rows.  Only the solver's assembled
system carries them, derived from its structure; every other matrix
carries none and counts as full.  solve_linear eliminates within the
extents.  What it skips would subtract a signed zero, so the solution is
the dense elimination's, up to the sign of a component that is zero.

Validation happens where values enter from outside the program: the
Matrix and Vector constructors convert every entry with float() and reject
non-finite ones.  What the package computes itself (Theta, projected
coefficients, the solver's systems and its output) is built by `_of`,
which takes the floats as they are and keeps a single finiteness pass, so
an overflow still raises LinAlgError instead of reaching the elimination
as a spurious singularity.
"""

import math
from operator import mul


class LinAlgError(ValueError):
    pass


class SingularMatrixError(LinAlgError):
    def __init__(self, column):
        self.column = column
        super().__init__("matrix is singular at column %d" % column)


def _check_finite(values, what):
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise LinAlgError("non-finite entry %r in %s" % (bad, what))


class Vector:
    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = [float(v) for v in entries]
        if not entries:
            raise LinAlgError("vector needs at least one entry")
        _check_finite(entries, "vector")
        self.entries = tuple(entries)

    @classmethod
    def _of(cls, entries):
        """A vector over floats the program computed: checked for
        finiteness, not converted."""
        self = object.__new__(cls)
        self.entries = tuple(entries)
        _check_finite(self.entries, "vector")
        return self

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, Vector) and self.entries == other.entries

    def __repr__(self):
        return "Vector(%r)" % (list(self.entries),)


class Matrix:
    """Dense rows x cols matrix, entries row-major."""

    __slots__ = ("rows", "cols", "entries", "extents")

    def __init__(self, rows, cols, entries):
        entries = [float(v) for v in entries]
        if rows < 1 or cols < 1:
            raise LinAlgError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise LinAlgError(
                "expected %d entries for a %dx%d matrix, got %d"
                % (rows * cols, rows, cols, len(entries))
            )
        _check_finite(entries, "matrix")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        self.extents = None

    @classmethod
    def _of(cls, rows, cols, entries, extents=None):
        """A rows x cols matrix over floats the program computed, row-major:
        checked for finiteness, not converted or reshaped, with optional
        row extents (module docstring)."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        self.extents = extents
        _check_finite(self.entries, "matrix")
        return self

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise LinAlgError("ragged rows in matrix literal")
            flat.extend(r)
        return cls(len(rows), ncols, flat)

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return "Matrix.from_rows(%r)" % (self.to_rows(),)


def _lu_factor(m, extents, threshold):
    """In-place LU with partial pivoting on the row lists `m`, within the
    row extents.

    Returns (m, perm, starts, ends): the rows now hold L (below diagonal,
    unit implied, from starts[i]) and U (on/above, up to ends[i]).  A pivot
    below `threshold` (1e-13 times the largest initial |entry|) is treated
    as structural singularity (an ill-posed assembly), not round-off, and
    reported with the offending column.  Among equal candidates the first
    row is the pivot.  The candidates are the rows whose extent starts at
    or before the column; rows not reached yet keep their order, so they
    are rows col..hi-1.  An update runs to the end of the pivot row's
    extent, which the updated row's extent then reaches too.
    """
    # Plain indexed loops: on rows this short they beat slicing, zip and
    # comprehensions (measured on CPython 3.11).
    n = len(m)
    perm = list(range(n))
    starts = [s for s, _ in extents]
    ends = [e for _, e in extents]
    hi = 0
    for col in range(n):
        while hi < n and starts[hi] <= col:
            hi += 1
        piv, pabs = col, abs(m[col][col])
        for r in range(col + 1, hi):
            v = abs(m[r][col])
            if v > pabs:
                piv, pabs = r, v
        pval = m[piv][col]
        if pval == 0.0 or pabs < threshold:
            raise SingularMatrixError(col)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            perm[col], perm[piv] = perm[piv], perm[col]
            starts[col], starts[piv] = starts[piv], starts[col]
            ends[col], ends[piv] = ends[piv], ends[col]
        prow = m[col]
        pend = ends[col]
        for r in range(col + 1, hi):
            row = m[r]
            f = row[col] / pval
            row[col] = f
            if f == 0.0:
                continue
            for c in range(col + 1, pend):
                row[c] -= f * prow[c]
            if ends[r] < pend:
                ends[r] = pend
    return m, perm, starts, ends


def _lu_solve(lu, b):
    m, perm, starts, ends = lu
    n = len(perm)
    x = [b[p] for p in perm]
    # Row by row from each row's start: the column sweep's operations on
    # each x[r] in the same order, zero x[c] skipped as there.
    for r in range(n):
        s = x[r]
        row = m[r]
        for c in range(starts[r], r):
            xc = x[c]
            if xc != 0.0:
                s -= row[c] * xc
        x[r] = s
    for r in range(n - 1, -1, -1):
        s = x[r]
        row = m[r]
        for c in range(r + 1, ends[r]):
            s -= row[c] * x[c]
        x[r] = s / row[r]
    return x


def solve_linear(a, b):
    """Solve a*x = b by Gaussian elimination with partial pivoting.

    The LU solution is polished with two steps of iterative refinement using
    compensated (exactly summed) residuals; for the small, well-conditioned
    systems produced here this brings each solution component to within a few
    ulps, which downstream polynomial reconstruction needs because basis
    coefficients get amplified by large monomial coefficients.  Both
    operands are finite by construction, so nothing is validated again; the
    work runs on plain row lists, within the matrix's row extents if it
    has them.  A residual sums its row's extent only: fsum is exact, so
    the zero products outside it would not change its value.
    """
    if a.rows != a.cols:
        raise LinAlgError("solve needs a square matrix, got %dx%d" % (a.rows, a.cols))
    if a.rows != len(b):
        raise LinAlgError(
            "matrix is %dx%d but right-hand side has length %d" % (a.rows, a.cols, len(b))
        )
    n = a.rows
    flat = a.entries
    extents = a.extents or ((0, n),) * n
    lu = _lu_factor(
        [list(flat[i * n : (i + 1) * n]) for i in range(n)], extents,
        1e-13 * max(map(abs, flat)),
    )
    rows = [(flat[i * n + s : i * n + e], s, e) for i, (s, e) in enumerate(extents)]
    rhs = b.entries
    x = _lu_solve(lu, rhs)
    for _ in range(2):
        residual = [
            math.fsum([*map(mul, row, x[s:e]), -bi]) for (row, s, e), bi in zip(rows, rhs)
        ]
        if not any(residual):
            break
        d = _lu_solve(lu, residual)
        x = [xi - di for xi, di in zip(x, d)]
    return Vector._of(x)

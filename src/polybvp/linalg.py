"""One dense linear solver, on plain row lists.

Everything in this package runs at desk scale (systems below ~40x40), so
the solver is deliberately plain: Gaussian elimination with partial
pivoting on a copy of the rows, then two steps of iterative refinement.
A system is n row lists of n floats and a right-hand side of n floats.

The solver's assembled system comes with row extents, one (start, end)
per row: the row is +0.0 outside columns start..end-1, no entry is -0.0,
and the starts never decrease down the rows.  They are derived from the
system's structure, not from its values; a system given without them is
eliminated in full.  What elimination within the extents skips would
subtract a signed zero, so the solution is the dense elimination's, up to
the sign of a component that is zero.

Validation happens where values enter from outside the program: problems,
boundary conditions, problem files and expressions.  What the package
computes itself (Theta, projected coefficients, the solver's systems and
its output) is kept in plain floats and lists.  solve_linear checks its
operands for finiteness once, so an overflow in an assembled system raises
LinAlgError instead of reaching the elimination as a spurious singularity.
"""

import math
from operator import mul


class LinAlgError(ValueError):
    pass


class SingularMatrixError(LinAlgError):
    def __init__(self, column):
        self.column = column
        super().__init__("matrix is singular at column %d" % column)


def check_finite(values, what):
    """Raise LinAlgError naming the first non-finite entry of values."""
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise LinAlgError("non-finite entry %r in %s" % (bad, what))


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


def solve_linear(rows, b, extents=None):
    """Solve A x = b, A given as n row lists, by Gaussian elimination with
    partial pivoting; returns x as a tuple.

    The LU solution is polished with two steps of iterative refinement using
    compensated (exactly summed) residuals; for the small, well-conditioned
    systems produced here this brings each solution component to within a few
    ulps, which downstream polynomial reconstruction needs because basis
    coefficients get amplified by large monomial coefficients.  The work
    runs on a copy of the rows, within the row extents if given (module
    docstring), so the arguments are left unchanged.  A residual sums its
    row's extent only: fsum is exact, so the zero products outside it would
    not change its value.  A residual that overflows raises LinAlgError.
    """
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise LinAlgError("solve needs a nonempty square matrix, got %d rows of lengths %s"
                          % (n, sorted({len(row) for row in rows})))
    if len(b) != n:
        raise LinAlgError(
            "matrix is %dx%d but right-hand side has length %d" % (n, n, len(b))
        )
    for row in rows:
        check_finite(row, "matrix")
    check_finite(b, "vector")
    extents = extents or ((0, n),) * n
    lu = _lu_factor(
        [list(row) for row in rows], extents,
        1e-13 * max(max(map(abs, row)) for row in rows),
    )
    spans = [(row[s:e], s, e) for row, (s, e) in zip(rows, extents)]
    x = _lu_solve(lu, b)
    for _ in range(2):
        try:
            residual = [
                math.fsum([*map(mul, row, x[s:e]), -bi]) for (row, s, e), bi in zip(spans, b)
            ]
        except (ValueError, OverflowError):  # inf - inf, or finite products past the range
            residual = [math.inf]
        if not all(map(math.isfinite, residual)):
            raise LinAlgError("the refinement residual overflowed the double range")
        if not any(residual):
            break
        d = _lu_solve(lu, residual)
        x = [xi - di for xi, di in zip(x, d)]
    check_finite(x, "solution")
    return tuple(x)

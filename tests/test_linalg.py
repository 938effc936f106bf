"""The pivoted solver on plain row lists."""

import math
import random

import pytest

from polybvp.linalg import LinAlgError, SingularMatrixError, solve_linear


def rand_rows(rng, n, lo=-1.0, hi=1.0):
    return [[rng.uniform(lo, hi) for _ in range(n)] for _ in range(n)]


def times(rows, x):
    return [sum(v * xj for v, xj in zip(row, x)) for row in rows]


IDENTITY3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


class TestSolveLinear:
    def test_identity_system(self):
        b = [3.0, -1.0, 0.5]
        assert solve_linear(IDENTITY3, b) == tuple(b)

    def test_diagonal_system(self):
        x = solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert x == (1.0, 2.0)

    def test_random_system_residual(self):
        """Well-conditioned 8x8: multiply back, residual <= 1e-10."""
        rng = random.Random(23)
        for _ in range(5):
            a = rand_rows(rng, 8)
            # push the spectrum away from zero without changing the texture
            for i in range(8):
                a[i][i] += 4.0
            b = [rng.uniform(-2, 2) for _ in range(8)]
            x = solve_linear(a, b)
            res = times(a, x)
            worst = max(abs(u - v) for u, v in zip(res, b))
            assert worst <= 1e-10 * (1.0 + max(abs(v) for v in b))

    def test_recovers_known_solution(self):
        """solve(A, A x0) = x0 within 1e-9 relative, diagonally dominant A."""
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(2, 12)
            a = [[rng.uniform(-1, 1) + (4.0 if i == j else 0.0) for j in range(n)]
                 for i in range(n)]
            x0 = [rng.uniform(-3, 3) for _ in range(n)]
            x = solve_linear(a, times(a, x0))
            scale = max(abs(v) for v in x0)
            worst = max(abs(u - v) for u, v in zip(x, x0))
            assert worst <= 1e-9 * max(1.0, scale)

    def test_singular_reports_column(self):
        with pytest.raises(SingularMatrixError) as err:
            solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        assert err.value.column == 1

    def test_shape_validation(self):
        with pytest.raises(LinAlgError, match="square"):
            solve_linear([[0.0] * 3, [0.0] * 3], [1.0, 2.0])
        with pytest.raises(LinAlgError, match="right-hand side has length 2"):
            solve_linear(IDENTITY3, [1.0, 2.0])

    @pytest.mark.parametrize("rows, b", [
        # x = (1.7e308, -inf): the residual sums inf and -inf (ValueError)
        ([[1.0, 0.0], [4.0, 1.0]], [1.7e308, 0.0]),
        # x finite, products finite, partial sums past the range (OverflowError)
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]], [1.7e308] * 3),
    ])
    def test_overflowing_residual_raises(self, rows, b):
        """A refinement residual that overflows raises LinAlgError, not
        fsum's bare ValueError or OverflowError."""
        with pytest.raises(LinAlgError, match="residual overflowed"):
            solve_linear(rows, b)


class TestContainers:
    """The plain containers solve_linear takes in place of the deleted
    Matrix and Vector classes: n row lists and a sequence b, checked once
    for shape and finiteness, left as they were."""

    def test_vector_validation(self):
        with pytest.raises(LinAlgError, match="right-hand side has length 0"):
            solve_linear([[1.0]], [])
        with pytest.raises(LinAlgError, match="^non-finite entry inf in vector$"):
            solve_linear([[1.0, 0.0], [0.0, 1.0]], [1.0, float("inf")])

    def test_matrix_validation(self):
        with pytest.raises(LinAlgError, match=r"got 2 rows of lengths \[1, 2\]$"):
            solve_linear([[1.0, 2.0], [3.0]], [1.0, 2.0])
        with pytest.raises(LinAlgError, match="square"):
            solve_linear([[1.0, 2.0, 3.0]], [1.0])

    def test_empty_matrix_literals(self):
        with pytest.raises(LinAlgError, match="nonempty square matrix, got 0 rows"):
            solve_linear([], [])
        with pytest.raises(LinAlgError, match="square"):
            solve_linear([[]], [1.0])

    def test_overflowing_result_raises(self):
        # computed operands are not converted, but they are checked for
        # finiteness before the elimination, matrix first
        with pytest.raises(LinAlgError, match="^non-finite entry inf in matrix$"):
            solve_linear([[1e200 * 1e200]], [1.0])
        with pytest.raises(LinAlgError, match="^non-finite entry nan in vector$"):
            solve_linear([[1.0, 0.0], [0.0, 1.0]], [1.0, math.inf - math.inf])
        with pytest.raises(LinAlgError, match="^non-finite entry inf in matrix$"):
            solve_linear([[1.0, 0.0], [0.0, math.inf]], [math.nan, 1.0])

    def test_only_the_assembled_system_carries_extents(self):
        """A system given without extents is eliminated in full: a row
        outside the extents a caller could wrongly claim still takes part,
        and the solution is the full elimination's."""
        rng = random.Random(59)
        a = rand_rows(rng, 3)
        for i in range(3):
            a[i][i] += 4.0
        a[2][0] = 0.5  # nonzero where extents starting at column 1 would skip it
        b = [rng.uniform(-1, 1) for _ in range(3)]
        full = solve_linear(a, b)
        assert full == solve_linear(a, b, ((0, 3),) * 3)
        worst = max(abs(u - v) for u, v in zip(times(a, full), b))
        assert worst <= 1e-14
        assert solve_linear(a, b, ((0, 3), (0, 3), (1, 3))) != full

    def test_entries_immutable(self):
        """solve_linear factors a copy: rows and b come back unchanged, and
        the solution is a tuple."""
        rng = random.Random(67)
        a = rand_rows(rng, 5)
        b = [rng.uniform(-1, 1) for _ in range(5)]
        before = ([row[:] for row in a], b[:])
        x = solve_linear(a, b)
        assert (a, b) == before
        assert isinstance(x, tuple)

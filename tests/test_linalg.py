"""Dense matrix/vector containers and the pivoted solver."""

import math
import random

import pytest

from polybvp.linalg import LinAlgError, Matrix, SingularMatrixError, Vector, solve_linear


def rand_matrix(rng, n, m=None, lo=-1.0, hi=1.0):
    m = n if m is None else m
    return Matrix(n, m, [rng.uniform(lo, hi) for _ in range(n * m)])


def times(a, x):
    return [sum(a.at(i, j) * x[j] for j in range(a.cols)) for i in range(a.rows)]


IDENTITY3 = Matrix.from_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


class TestSolveLinear:
    def test_identity_system(self):
        b = Vector([3.0, -1.0, 0.5])
        assert solve_linear(IDENTITY3, b) == b

    def test_diagonal_system(self):
        a = Matrix.from_rows([[2.0, 0.0], [0.0, 4.0]])
        x = solve_linear(a, Vector([2.0, 8.0]))
        assert list(x) == [1.0, 2.0]

    def test_random_system_residual(self):
        """Well-conditioned 8x8: multiply back, residual <= 1e-10."""
        rng = random.Random(23)
        for _ in range(5):
            a = rand_matrix(rng, 8)
            # push the spectrum away from zero without changing the texture
            a = Matrix(8, 8, [v + (4.0 if i % 9 == 0 else 0.0)
                              for i, v in enumerate(a.entries)])
            b = Vector([rng.uniform(-2, 2) for _ in range(8)])
            x = solve_linear(a, b)
            res = times(a, x)
            worst = max(abs(u - v) for u, v in zip(res, b))
            assert worst <= 1e-10 * (1.0 + max(abs(v) for v in b))

    def test_recovers_known_solution(self):
        """solve(A, A x0) = x0 within 1e-9 relative, diagonally dominant A."""
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(2, 12)
            a = Matrix(n, n, [rng.uniform(-1, 1) + (4.0 if i // n == i % n else 0.0)
                              for i in range(n * n)])
            x0 = [rng.uniform(-3, 3) for _ in range(n)]
            x = solve_linear(a, Vector(times(a, x0)))
            scale = max(abs(v) for v in x0)
            worst = max(abs(u - v) for u, v in zip(x, x0))
            assert worst <= 1e-9 * max(1.0, scale)

    def test_singular_reports_column(self):
        a = Matrix.from_rows([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(a, Vector([1.0, 1.0]))
        assert err.value.column == 1

    def test_shape_validation(self):
        with pytest.raises(LinAlgError):
            solve_linear(Matrix(2, 3, [0.0] * 6), Vector([1.0, 2.0]))
        with pytest.raises(LinAlgError):
            solve_linear(IDENTITY3, Vector([1.0, 2.0]))


class TestContainers:
    def test_vector_validation(self):
        with pytest.raises(LinAlgError):
            Vector([])
        with pytest.raises(LinAlgError):
            Vector([1.0, float("inf")])

    def test_matrix_validation(self):
        with pytest.raises(LinAlgError):
            Matrix(2, 2, [1.0, 2.0, 3.0])
        with pytest.raises(LinAlgError):
            Matrix.from_rows([[1.0, 2.0], [3.0]])

    def test_overflowing_result_raises(self):
        # computed results skip float() conversion but not the finiteness check
        with pytest.raises(LinAlgError, match="non-finite entry inf in matrix"):
            Matrix._of(1, 1, [1e200 * 1e200])
        with pytest.raises(LinAlgError, match="non-finite entry nan in vector"):
            Vector._of([1.0, math.inf - math.inf])

    def test_only_the_assembled_system_carries_extents(self):
        """User input, and a computed matrix given no extents, is solved as
        a full matrix: none of them carries row extents."""
        rng = random.Random(59)
        a = rand_matrix(rng, 3)
        made = [
            a,
            Matrix.from_rows(a.to_rows()),
            IDENTITY3,
            Matrix._of(3, 3, a.entries),
        ]
        assert [m.extents for m in made] == [None] * len(made)
        banded = Matrix._of(3, 3, a.entries, ((0, 3), (0, 3), (1, 3)))
        assert banded.extents == ((0, 3), (0, 3), (1, 3))

    def test_entries_immutable(self):
        a = Matrix._of(2, 2, [1.0, 0.0, 0.0, 1.0])
        assert isinstance(a.entries, tuple)
        assert isinstance(Vector([1.0]).entries, tuple)

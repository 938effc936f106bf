"""Dense matrix/vector plumbing and the pivoted solver."""

import random

import pytest

from polybvp.linalg import (
    LinAlgError,
    Matrix,
    SingularMatrixError,
    Vector,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    outer,
    solve_linear,
    transpose,
)


def rand_matrix(rng, n, m=None, lo=-1.0, hi=1.0):
    m = n if m is None else m
    return Matrix(n, m, [rng.uniform(lo, hi) for _ in range(n * m)])


class TestMatMul:
    def test_identity_left(self):
        rng = random.Random(3)
        a = rand_matrix(rng, 3)
        assert mat_mul(identity(3), a) == a

    def test_nilpotent_square(self):
        n = Matrix.from_rows([[0.0, 1.0], [0.0, 0.0]])
        assert mat_mul(n, n).entries == (0.0, 0.0, 0.0, 0.0)

    def test_transpose_of_product(self):
        # (AB)^T = B^T A^T, cross-checked against an explicit triple loop
        rng = random.Random(11)
        a = rand_matrix(rng, 4)
        b = rand_matrix(rng, 4)
        ab = mat_mul(a, b)
        for i in range(4):
            for j in range(4):
                direct = sum(a.at(i, k) * b.at(k, j) for k in range(4))
                assert abs(ab.at(i, j) - direct) <= 1e-14
        lhs = transpose(ab)
        rhs = mat_mul(transpose(b), transpose(a))
        worst = max(abs(u - v) for u, v in zip(lhs.entries, rhs.entries))
        assert worst <= 1e-14

    def test_associativity(self):
        rng = random.Random(17)
        for _ in range(10):
            a, b, c = (rand_matrix(rng, 5) for _ in range(3))
            left = mat_mul(mat_mul(a, b), c)
            right = mat_mul(a, mat_mul(b, c))
            scale = max(abs(v) for v in left.entries)
            worst = max(abs(u - v) for u, v in zip(left.entries, right.entries))
            assert worst <= 1e-12 * max(1.0, scale)

    def test_dimension_mismatch_names_shapes(self):
        a = Matrix(2, 3, [0.0] * 6)
        b = Matrix(2, 2, [0.0] * 4)
        with pytest.raises(LinAlgError, match=r"2x3.*2x2"):
            mat_mul(a, b)


class TestSolveLinear:
    def test_identity_system(self):
        b = Vector([3.0, -1.0, 0.5])
        assert solve_linear(identity(3), b) == b

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
            res = mat_vec(a, x)
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
            x = solve_linear(a, mat_vec(a, Vector(x0)))
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
            solve_linear(identity(3), Vector([1.0, 2.0]))


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
        big = Matrix.from_rows([[1e200]])
        with pytest.raises(LinAlgError, match="non-finite entry inf in matrix"):
            mat_mul(big, big)
        with pytest.raises(LinAlgError, match="non-finite entry inf in vector"):
            mat_vec(big, Vector([1e200]))

    def test_only_the_assembled_system_carries_extents(self):
        """User input and every product, sum or transpose is solved as a
        full matrix: none of them carries row extents."""
        rng = random.Random(59)
        a = rand_matrix(rng, 3)
        u = Vector([1.0, -2.0, 0.5])
        made = [
            a,
            Matrix.from_rows(a.to_rows()),
            identity(3),
            transpose(a),
            mat_mul(a, a),
            mat_add(a, a),
            mat_scale(a, -0.5),
            outer(u, u),
        ]
        assert [m.extents for m in made] == [None] * len(made)

    def test_entries_immutable(self):
        a = identity(2)
        assert isinstance(a.entries, tuple)
        assert isinstance(Vector([1.0]).entries, tuple)

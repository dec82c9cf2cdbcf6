import numpy as np
import pytest

from elmstream.numerics import (
    ShapeError,
    SingularMatrixError,
    cholesky_spd,
    pinv_normal,
    solve_spd,
)


def random_spd(rng, n, shift=1.0):
    g = rng.normal(size=(n, n))
    return g.T @ g + shift * np.eye(n)


class TestCholeskySpd:
    def test_factor_reproduces_matrix(self):
        a = random_spd(np.random.default_rng(5), 7)
        lower = cholesky_spd(a)
        assert np.array_equal(lower, np.tril(lower))
        assert np.max(np.abs(lower @ lower.T - a)) <= 1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_raises(self):
        with pytest.raises(SingularMatrixError):
            cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_pivot_below_relative_tolerance_raises(self):
        with pytest.raises(SingularMatrixError, match="pivot"):
            cholesky_spd(np.diag([1.0, 1e-14]))


class TestSolveSpd:
    def test_identity_system(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(solve_spd(np.eye(3), b), b)

    def test_diagonal_system(self):
        a = np.diag([2.0, 4.0])
        b = np.array([[2.0], [8.0]])
        assert np.allclose(solve_spd(a, b), [[1.0], [2.0]], atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 5)
        b = rng.normal(size=(5, 2))
        x = solve_spd(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-8 * np.max(np.abs(b))

    def test_multiply_back_relative_many(self):
        rng = np.random.default_rng(4)
        for n in (2, 6, 12):
            a = random_spd(rng, n)
            b = rng.normal(size=(n, 3))
            x = solve_spd(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-8 * max(np.max(np.abs(b)), 1.0)

    def test_singular_raises(self):
        a = np.ones((3, 3))  # rank one
        with pytest.raises(SingularMatrixError, match="pivot"):
            solve_spd(a, np.eye(3))

    def test_pivot_below_relative_tolerance_raises(self):
        # LAPACK factors this matrix; the 1e-12 relative tolerance rejects it.
        with pytest.raises(SingularMatrixError, match="pivot"):
            solve_spd(np.diag([1.0, 1e-14]), np.eye(2))

    def test_indefinite_raises(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(SingularMatrixError):
            solve_spd(a, np.eye(2))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd(a, np.eye(2))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            solve_spd(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(ShapeError):
            solve_spd(np.eye(2), np.ones((3, 1)))


class TestPinvNormal:
    def test_identity(self):
        assert np.allclose(pinv_normal(np.eye(3), 0.0), np.eye(3), atol=1e-14)

    def test_constant_column(self):
        out = pinv_normal([[1.0], [1.0]], 0.0)
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_left_inverse_property(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(20, 5))
        assert np.max(np.abs(pinv_normal(h, 0.0) @ h - np.eye(5))) <= 1e-8

    def test_rank_deficient_raises_then_ridge_recovers(self):
        h = np.ones((4, 2))  # duplicate columns
        with pytest.raises(SingularMatrixError):
            pinv_normal(h, 0.0)
        out = pinv_normal(h, 1e-6)
        assert np.isfinite(out).all()

    def test_wide_matrix_rejected(self):
        with pytest.raises(ShapeError):
            pinv_normal(np.ones((2, 3)), 0.0)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            pinv_normal(np.eye(2), -1.0)

    def test_least_squares_residual_orthogonality(self):
        # pinv solution minimizes ||Hx - y||: residual orthogonal to columns.
        rng = np.random.default_rng(6)
        h = rng.normal(size=(15, 4))
        y = rng.normal(size=(15, 2))
        x = pinv_normal(h, 0.0) @ y
        assert np.max(np.abs(h.T @ (h @ x - y))) <= 1e-9

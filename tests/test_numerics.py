import numpy as np
import pytest

from elmstream.model import OselmModel, init_hidden, update
from elmstream.numerics import (
    _SYMMETRY_BLOCK,
    SYMMETRY_RTOL,
    ShapeError,
    SingularMatrixError,
    _asymmetric,
    cholesky_spd,
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
        # LAPACK factors this matrix; the 1e-12 relative tolerance rejects it.
        with pytest.raises(SingularMatrixError, match="pivot"):
            cholesky_spd(np.diag([1.0, 1e-14]))

    def test_rank_one_raises(self):
        with pytest.raises(SingularMatrixError, match="pivot"):
            cholesky_spd(np.ones((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            cholesky_spd(np.ones((2, 3)))


class TestSolveSpd:
    """The learner's SPD solves: init_phase on its Gram matrix and update on
    S = I + H M H'. Each is certified by cholesky_spd before it inverts, so
    the rejections an SPD solve must make are checked here at their bounds."""

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        cholesky_spd(a + np.array([[0.0, 0.0], [1e-11, 0.0]]))  # within 1e-10
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_spd(a + np.array([[0.0, 0.0], [1e-9, 0.0]]))

    def test_indefinite_raises(self):
        # M = -10 I makes S = I + H M H' indefinite for this block.
        model = OselmModel(
            hidden=init_hidden(2, 2, "sigmoid", seed=39),
            gram_inv=-10.0 * np.eye(2),
            beta=np.zeros((2, 1)),
            samples_seen=4,
            blocks_seen=1,
        )
        x = np.array([[0.5, 0.5], [-0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularMatrixError, match="indefinite"):
            update(model, x, np.ones((3, 1)))

    def test_pivot_below_relative_tolerance_raises(self):
        # The tolerance scales with the largest diagonal entry: the same
        # positive pivot passes beside 1.0 and fails beside 1e6.
        cholesky_spd(np.diag([1.0, 1e-7]))
        with pytest.raises(SingularMatrixError, match="pivot"):
            cholesky_spd(np.diag([1e6, 1e-7]))


class TestSymmetryCheck:
    """The symmetry check compares the triangles in blocks of rows. An
    asymmetry in the last block must be judged as one in the first, and
    every decision must match the dense max |a - a.T| check."""

    N = 2 * _SYMMETRY_BLOCK + 7

    def spd_with_gap(self, gap_rtol):
        rng = np.random.default_rng(17)
        a = random_spd(rng, self.N, shift=float(self.N))
        scale = float(np.max(np.abs(a)))
        a[self.N - 1, self.N - 3] += gap_rtol * SYMMETRY_RTOL * scale
        return a

    def test_gap_just_below_tolerance_accepted(self):
        cholesky_spd(self.spd_with_gap(0.99))

    def test_gap_just_above_tolerance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_spd(self.spd_with_gap(1.01))

    @pytest.mark.parametrize("n", [1, 5, _SYMMETRY_BLOCK, N])
    def test_same_decision_as_the_dense_check(self, n):
        rng = np.random.default_rng(n)
        for value in (1e-9, 1e-11, np.inf, -np.inf, np.nan, 1e308):
            g = rng.normal(size=(n, n))
            a = g + g.T
            a[n - 1, 0] += value
            for b in (a, a.T, 1e-300 * a, np.zeros((n, n))):
                with np.errstate(invalid="ignore"):  # inf - inf on the non-finite inputs
                    scale = float(np.max(np.abs(b)))
                    gap = float(np.max(np.abs(b - b.T)))
                    dense = scale > 0.0 and gap > SYMMETRY_RTOL * scale
                    assert _asymmetric(np.ascontiguousarray(b)) == dense

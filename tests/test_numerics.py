import numpy as np
import pytest

from elmstream.model import OselmModel, init_hidden, update
from elmstream.numerics import (
    NumericalError,
    ShapeError,
    SingularMatrixError,
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
        cholesky_spd(a)
        for gap in (1e-11, 1e-9):
            with pytest.raises(ValueError, match="symmetric"):
                cholesky_spd(a + np.array([[0.0, 0.0], [gap, 0.0]]))

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
    """Every symmetric matrix the learner factors is symmetric by
    construction, so cholesky_spd accepts a matrix only when it equals its
    transpose bit for bit."""

    N = 263

    def spd(self):
        return random_spd(np.random.default_rng(17), self.N, shift=float(self.N))

    @pytest.mark.parametrize(
        "row, col", [(0, 1), (N - 1, N - 3)], ids=["first_row", "last_row"]
    )
    def test_one_ulp_gap_rejected(self, row, col):
        a = self.spd()
        a[row, col] = np.nextafter(a[row, col], np.inf)
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_spd(a)

    def test_equal_to_transpose_accepted(self):
        a = self.spd()
        assert np.array_equal(a, a.T)
        assert cholesky_spd(a).shape == a.shape

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)], ids=["diagonal", "off_diagonal"])
    def test_non_finite_raises_numerical_error(self, value, where):
        # NaN != NaN: without the finiteness check first, a NaN matrix
        # would be rejected as asymmetric instead.
        a = self.spd()
        a[where] = a[where[::-1]] = value
        with pytest.raises(NumericalError, match="non-finite"):
            cholesky_spd(a)

    @pytest.mark.parametrize("n", [1, 5, 128, N])
    def test_same_decision_as_the_dense_check(self, n):
        # Accepted exactly when no entry differs from its mirror, by an
        # elementwise comparison independent of cholesky_spd's own.
        rng = np.random.default_rng(n)
        for value in (0.0, 1e-300, 1e-11, 1e308):
            a = random_spd(rng, n, shift=float(n))
            a[n - 1, 0] += value
            for b in (a, a.T):
                b = np.ascontiguousarray(b)
                if any(b[i, j] != b[j, i] for i in range(n) for j in range(i)):
                    with pytest.raises(ValueError, match="symmetric"):
                        cholesky_spd(b)
                else:
                    cholesky_spd(b)

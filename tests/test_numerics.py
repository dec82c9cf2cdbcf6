import ast
import pathlib
import re
import warnings

import numpy as np
import pytest

import elmstream.numerics as numerics
from elmstream.labels import calibrate_threshold, decode
from elmstream.model import OselmModel, init_hidden, update
from elmstream.numerics import (
    NumericalError,
    ShapeError,
    SingularMatrixError,
    ensure_finite,
    inverse_factor,
)


def random_spd(rng, n, shift=1.0):
    g = rng.normal(size=(n, n))
    return g.T @ g + shift * np.eye(n)


# ensure_finite, decode and calibrate_threshold prove a finite array with
# one dot, a sum of squares, and test each entry only when that sum is not
# finite.
FINITE_CHECKS = [
    pytest.param(ensure_finite, NumericalError, "result contains non-finite entries",
                 id="ensure_finite"),
    pytest.param(lambda a: decode(a, 0.0), ValueError, "raw outputs contain non-finite values",
                 id="decode"),
    pytest.param(lambda a: calibrate_threshold(a, np.zeros(a.shape, dtype=np.int8)), ValueError,
                 "raw outputs contain non-finite values; cannot calibrate",
                 id="calibrate_threshold"),
]


@pytest.mark.parametrize("check, error, message", FINITE_CHECKS)
class TestFinitenessProof:
    def test_squares_that_overflow_are_accepted_without_a_warning(self, check, error, message):
        a = np.array([[1e200, -1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check(a)
            check(a.T)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (25, 500), (49, 999)],
                             ids=["first", "middle", "last"])
    def test_non_finite_entry_rejected(self, check, error, message, value, where):
        a = np.random.default_rng(3).normal(size=(50, 1000))
        check(a)
        a[where] = value
        for view in (a, a.T):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                check(view)


class TestFactorCertification:
    """The certification inverse_factor makes on its Cholesky factor."""

    def test_factor_reproduces_matrix(self):
        # L^-1 a L^-T is the identity exactly when L L' is a.
        a = random_spd(np.random.default_rng(5), 7)
        l_inv = inverse_factor(a)
        assert np.max(np.abs(l_inv @ a @ l_inv.T - np.eye(7))) <= 1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            inverse_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_pivot_below_relative_tolerance_raises(self):
        # LAPACK factors this matrix; the 1e-12 relative tolerance rejects it.
        with pytest.raises(SingularMatrixError, match="pivot"):
            inverse_factor(np.diag([1.0, 1e-14]))

    def test_pivot_at_the_tolerance_raises(self):
        # sqrt(1e-12) squared is 1e-12 again: the pivot equals the
        # tolerance, and a pivot must exceed it.
        with pytest.raises(SingularMatrixError) as exc:
            inverse_factor(np.diag([1.0, 1e-12]))
        assert str(exc.value) == ("pivot 1.000e-12 at column 1 is at or below tolerance "
                                  "1.000e-12; matrix is singular or indefinite")

    def test_rank_one_raises(self):
        with pytest.raises(SingularMatrixError, match="pivot"):
            inverse_factor(np.ones((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError) as exc:
            inverse_factor(np.ones((2, 3)))
        assert str(exc.value) == "coefficient matrix must be square, got 2x3"


def graded_spd(n, seed):
    """SPD matrix with eigenvalues from 1 down to 1e-4. LU pivots on its
    Cholesky factor, so a general inverse of the factor leaves rounding
    above the diagonal."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    b = q * np.sqrt(np.logspace(0, -4, n))
    return b @ b.T


# One and 64 rows take the base case; 65 and 150 split into halves.
@pytest.mark.parametrize("n", [1, 64, 65, 150])
class TestInverseFactor:
    def test_result_is_lower_triangular(self, n):
        l_inv = inverse_factor(graded_spd(n, seed=n))
        assert np.array_equal(l_inv, np.tril(l_inv))

    def test_result_inverts_the_cholesky_factor(self, n):
        a = graded_spd(n, seed=n)
        assert np.max(np.abs(inverse_factor(a) @ np.linalg.cholesky(a) - np.eye(n))) <= 1e-10

    def test_matrix_is_left_unchanged(self, n):
        a = graded_spd(n, seed=n)
        before = a.copy()
        inverse_factor(a)
        assert np.array_equal(a, before)


def test_every_public_name_has_a_caller():
    """Each name numerics exports is imported by another module of the
    package, so its public API is the one the learner uses."""
    package = pathlib.Path(numerics.__file__).parent
    imported = set()
    for path in package.glob("*.py"):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "numerics")
                or (node.level == 0 and node.module == "elmstream.numerics")
            ):
                imported.update(alias.name for alias in node.names)
    assert set(numerics.__all__) - imported == set()


class TestLearnerSolves:
    """The learner's SPD solves: init_phase on its Gram matrix and update on
    S = I + H M H'. Each is certified by inverse_factor before it inverts, so
    the rejections an SPD solve must make are checked here at their bounds."""

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
        inverse_factor(np.diag([1.0, 1e-7]))
        with pytest.raises(SingularMatrixError, match="pivot"):
            inverse_factor(np.diag([1e6, 1e-7]))


class TestSymmetryCheck:
    """Every symmetric matrix the learner factors is symmetric by
    construction, so inverse_factor accepts a matrix only when it equals its
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
            inverse_factor(a)

    def test_equal_to_transpose_accepted(self):
        a = self.spd()
        assert np.array_equal(a, a.T)
        assert inverse_factor(a).shape == a.shape

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)], ids=["diagonal", "off_diagonal"])
    def test_non_finite_raises_numerical_error(self, value, where):
        # NaN != NaN: without the finiteness check first, a NaN matrix
        # would be rejected as asymmetric instead.
        a = self.spd()
        a[where] = a[where[::-1]] = value
        with pytest.raises(NumericalError, match="non-finite"):
            inverse_factor(a)

    @pytest.mark.parametrize("n", [1, 2, 5, 128, N])
    def test_same_decision_as_the_dense_check(self, n):
        # Accepted exactly when no entry differs from its mirror, by an
        # elementwise comparison independent of inverse_factor's own. Two
        # rows take the matrix [[1, 0.5], [0.5, 1]].
        rng = np.random.default_rng(n)
        for value in (0.0, 1e-300, 1e-11, 1e-9, 1e308):
            a = np.array([[1.0, 0.5], [0.5, 1.0]]) if n == 2 else random_spd(rng, n, float(n))
            a[n - 1, 0] += value
            for b in (a, a.T):
                b = np.ascontiguousarray(b)
                if any(b[i, j] != b[j, i] for i in range(n) for j in range(i)):
                    with pytest.raises(ValueError, match="symmetric"):
                        inverse_factor(b)
                else:
                    inverse_factor(b)

"""Minimal dense linear-algebra kernel for the online ELM learner.

Matrices are 2-D float64 numpy arrays in row-major (C) order. Public
functions validate shapes on entry and guarantee finite entries on exit,
so numerical breakdown surfaces here instead of in callers. The
learner's one batch solve, the ridge-regularized normal equations of
``model.init_phase``, is certified positive definite by ``cholesky_spd``
before it is inverted. Every symmetric matrix the learner builds is
symmetric by construction, so symmetry is checked exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "NumericalError",
    "SingularMatrixError",
    "as_matrix",
    "ensure_finite",
    "cholesky_spd",
]

# Pivot tolerance for the SPD factorization, relative to the largest
# diagonal entry of the coefficient matrix.
PIVOT_RTOL = 1e-12


class ShapeError(ValueError):
    """Operand dimensions do not conform."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values or broke down."""


class SingularMatrixError(NumericalError):
    """SPD factorization hit a non-positive pivot below tolerance."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a C-contiguous 2-D float64 array."""
    out = np.ascontiguousarray(a, dtype=float)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={out.ndim}")
    return out


def ensure_finite(a: np.ndarray, what: str = "result") -> np.ndarray:
    """Raise NumericalError unless every entry of ``a`` is finite."""
    if not np.isfinite(a).all():
        raise NumericalError(f"{what} contains non-finite entries")
    return a


def cholesky_spd(a) -> np.ndarray:
    """Lower Cholesky factor L, with L @ L.T == a, of a certified SPD matrix.

    ``a`` must be square, finite and exactly symmetric; every caller
    builds it so. The squared diagonal of L holds the pivots of the
    factorization; each must exceed ``PIVOT_RTOL`` times the largest
    diagonal entry of ``a``.

    Raises:
        ShapeError: non-square ``a``.
        NumericalError: ``a`` has a non-finite entry.
        ValueError: ``a`` is not exactly symmetric.
        SingularMatrixError: factorization meets a non-positive pivot.
    """
    a = as_matrix(a, "coefficient matrix")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError(f"coefficient matrix must be square, got {a.shape[0]}x{a.shape[1]}")
    ensure_finite(a, "coefficient matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("coefficient matrix is not exactly symmetric")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "non-positive pivot in Cholesky factorization; "
            "matrix is singular or indefinite"
        ) from None
    if n:
        pivots = lower.diagonal() ** 2
        tol = PIVOT_RTOL * float(np.max(np.diagonal(a)))
        j = int(np.argmin(pivots))
        if not pivots[j] > tol:
            raise SingularMatrixError(
                f"pivot {pivots[j]:.3e} at column {j} is at or below tolerance "
                f"{tol:.3e}; matrix is singular or indefinite"
            )
    return lower

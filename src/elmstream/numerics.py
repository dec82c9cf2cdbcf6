"""Minimal dense linear-algebra kernel for the online ELM learner.

Matrices are 2-D float64 numpy arrays in row-major (C) order. Public
functions validate shapes on entry and guarantee finite entries on exit,
so numerical breakdown surfaces here instead of in callers. The
learner's two linear systems, the ridge-regularized normal equations of
``model.init_phase`` and the Woodbury matrix of a block update, take one
call each: ``inverse_factor`` certifies the matrix positive definite by
its Cholesky factor L and returns L^-1, inverted in place, so the
inverse is L^-T L^-1. It alone leaves finiteness to its callers, which
check what they form from the inverse. Every symmetric matrix the
learner builds is symmetric by construction, so symmetry is checked
exactly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ShapeError",
    "NumericalError",
    "SingularMatrixError",
    "as_matrix",
    "all_finite",
    "ensure_finite",
    "inverse_factor",
]

# Pivot tolerance for the SPD factorization, relative to the largest
# diagonal entry of the coefficient matrix.
PIVOT_RTOL = 1e-12

# _invert_lower hands blocks of at most this many rows to LAPACK's general
# inverse; larger ones it splits in halves.
_INVERT_BASE_ROWS = 64


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


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite.

    A sum of squares is finite only if every entry is, and the dot that
    forms it raises no overflow warning, so one dot proves the common case
    with no mask allocated. The exact test runs only when the sum is not
    finite, which finite entries whose squares overflow also give.
    """
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def ensure_finite(a: np.ndarray, what: str = "result") -> np.ndarray:
    """Raise NumericalError unless every entry of ``a`` is finite."""
    if not all_finite(a):
        raise NumericalError(f"{what} contains non-finite entries")
    return a


def inverse_factor(a) -> np.ndarray:
    """Inverse L^-1 of the lower Cholesky factor L, with L @ L.T == a, of a
    certified SPD matrix; ``a`` is left unchanged.

    ``a`` must be square, finite and exactly symmetric; every caller
    builds it so. The squared diagonal of L holds the pivots of the
    factorization; each must exceed ``PIVOT_RTOL`` times the largest
    diagonal entry of ``a``. The factor is then inverted in place, so the
    result is exactly lower triangular and a^-1 = L^-T L^-1. Its
    finiteness is left to the caller, which checks what it forms from it.

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
    return _invert_lower(lower)


def _invert_lower(lower: np.ndarray) -> np.ndarray:
    """Invert a lower triangular matrix in place and return it.

    ``lower`` is a writable float64 matrix, lower triangular with a
    non-zero diagonal. With L = [[A, 0], [B, C]] the inverse is
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: the two diagonal blocks are
    inverted in place, recursively, and the off-diagonal block with two
    gemms. The result is exactly lower triangular.
    """
    n = lower.shape[0]
    if n <= _INVERT_BASE_ROWS:
        # LU pivoting can leave rounding above the diagonal: tril drops it.
        lower[...] = np.tril(np.linalg.inv(lower))
        return lower
    half = n // 2
    a_inv = _invert_lower(lower[:half, :half])
    c_inv = _invert_lower(lower[half:, half:])
    b = lower[half:, :half]
    b[...] = -(c_inv @ (b @ a_inv))
    return lower

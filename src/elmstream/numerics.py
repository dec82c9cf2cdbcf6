"""Minimal dense linear-algebra kernel for the online ELM learner.

Matrices are 2-D float64 numpy arrays in row-major (C) order. Public
functions validate shapes on entry and guarantee finite entries on exit,
so numerical breakdown surfaces here instead of in callers. The
pseudoinverse goes through the normal equations with an optional ridge
term as an escape hatch for rank-deficient designs.
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
    "solve_spd",
    "pinv_normal",
]

# Pivot tolerance for the SPD factorization, relative to the largest
# diagonal entry of the coefficient matrix.
PIVOT_RTOL = 1e-12

# Relative asymmetry tolerated by cholesky_spd before rejecting the input.
SYMMETRY_RTOL = 1e-10


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


def _asymmetric(a: np.ndarray) -> bool:
    """True when max |a - a.T| exceeds SYMMETRY_RTOL times max |a|."""
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return scale > 0.0 and float(np.max(np.abs(a - a.T))) > SYMMETRY_RTOL * scale


def cholesky_spd(a) -> np.ndarray:
    """Lower Cholesky factor L, with L @ L.T == a, of a certified SPD matrix.

    ``a`` must be square and symmetric to within 1e-10 relative. The
    squared diagonal of L holds the pivots of the factorization; each
    must exceed ``PIVOT_RTOL`` times the largest diagonal entry of ``a``.

    Raises:
        ShapeError: non-square ``a``.
        ValueError: ``a`` is measurably asymmetric.
        SingularMatrixError: factorization meets a non-positive pivot.
    """
    a = as_matrix(a, "coefficient matrix")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError(f"coefficient matrix must be square, got {a.shape[0]}x{a.shape[1]}")
    if _asymmetric(a):
        raise ValueError("coefficient matrix is not symmetric to 1e-10 relative")
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


def solve_spd(a, b) -> np.ndarray:
    """Solve a @ x = b for symmetric positive-definite ``a``.

    ``a`` must be square and symmetric to within 1e-10 relative;
    ``b`` is an n x m right-hand side.

    Raises:
        ShapeError: non-square ``a`` or mismatched ``b``.
        ValueError: ``a`` is measurably asymmetric.
        SingularMatrixError: factorization meets a non-positive pivot.
    """
    a = as_matrix(a, "coefficient matrix")
    b = as_matrix(b, "right-hand side")
    # The factor only certifies definiteness. numpy has no triangular
    # solver, and LAPACK's general solve beats two triangular solves
    # done through it.
    cholesky_spd(a)
    if b.shape[0] != a.shape[0]:
        raise ShapeError(
            f"right-hand side has {b.shape[0]} rows, coefficient matrix has {a.shape[0]}"
        )
    return ensure_finite(np.linalg.solve(a, b), "SPD solve result")


def pinv_normal(h, ridge: float = 0.0) -> np.ndarray:
    """Left pseudoinverse (HtH + ridge*I)^-1 Ht of a tall matrix H.

    With ridge = 0 and full column rank this is the Moore-Penrose
    pseudoinverse. A SingularMatrixError signals rank deficiency; the
    caller may retry with ridge > 0.
    """
    h = as_matrix(h, "design matrix")
    if h.shape[0] < h.shape[1]:
        raise ShapeError(
            f"need rows >= cols for the normal equations, got {h.shape[0]}x{h.shape[1]}"
        )
    if ridge < 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    gram = h.T @ h
    if ridge > 0.0:
        gram = gram + ridge * np.eye(h.shape[1])
    gram = (gram + gram.T) / 2.0
    return solve_spd(gram, h.T)

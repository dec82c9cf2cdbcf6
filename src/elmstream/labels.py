"""Label-space pre- and post-processing.

Binary label matrices (entries 0/1) are encoded to bipolar regression
targets {-1, +1} for training; raw network outputs come back through a
single calibrated scalar threshold that decides, per output slot, both
how many labels a sample gets and which ones.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import all_finite

__all__ = [
    "ThresholdCalibration",
    "to_bipolar",
    "decode",
    "calibrate_threshold",
]


def _as_label_matrix(y, name: str = "labels") -> np.ndarray:
    out = np.asarray(y)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={out.ndim}")
    if out.size == 0:
        raise ValueError(f"{name} must have at least one row and one column")
    if not ((out == 0) | (out == 1)).all():
        raise ValueError(f"{name} entries must all be 0 or 1")
    return out.astype(np.int8, copy=False)


@dataclass(frozen=True)
class ThresholdCalibration:
    """Chosen decode threshold and the hamming loss it achieves on the
    calibration data (minimal over all candidates tried)."""

    threshold: float
    training_hamming: float


# to_bipolar maps label l to _BIPOLAR[l]. Labels held in one byte are
# looked up as uint8, so take()'s bounds check is their 0/1 check: int8 -1
# reads as 255. Labels of any other dtype are checked and cast first.
_BIPOLAR = np.array([-1.0, 1.0])
_BYTE_LABELS = (np.dtype(np.int8), np.dtype(np.uint8), np.dtype(np.bool_))


def to_bipolar(y) -> np.ndarray:
    """Map binary labels to bipolar targets: 0 -> -1, 1 -> +1."""
    y = np.asarray(y)
    if y.dtype not in _BYTE_LABELS or y.ndim != 2 or y.size == 0:
        y = _as_label_matrix(y)
    try:
        return _BIPOLAR.take(y.view(np.uint8))
    except IndexError:
        raise ValueError("labels entries must all be 0 or 1") from None


def decode(raw, threshold: float) -> np.ndarray:
    """Predict label j for sample i iff raw[i, j] > threshold (strict).

    ``threshold`` is one real number, the same for every label; +inf
    predicts no label and -inf every one.
    """
    if not isinstance(threshold, numbers.Real):
        raise ValueError(
            f"threshold must be a real scalar, got {type(threshold).__name__}"
        )
    if math.isnan(threshold):
        raise ValueError("threshold is NaN")
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError(f"raw outputs must be 2-D, got ndim={raw.ndim}")
    if not all_finite(raw):
        raise ValueError("raw outputs contain non-finite values")
    return (raw > threshold).astype(np.int8)


def calibrate_threshold(raw, truth) -> ThresholdCalibration:
    """Pick the scalar threshold separating relevant from irrelevant outputs.

    Candidates are one value below the minimum, the midpoints of
    consecutive distinct raw values and one value above the maximum; a
    candidate that rounds onto the raw value above it is lowered to the
    float below that value (-inf below the lowest float), so decode(raw, t)
    puts every raw value on the side the count assumed. The winner
    minimizes hamming loss of decode(raw, t) against ``truth``; ties go to
    the candidate closest to 0, then the smallest.
    """
    raw = np.asarray(raw, dtype=float)
    truth = _as_label_matrix(truth, "truth")
    if raw.shape != truth.shape:
        raise ValueError(f"raw {raw.shape} and truth {truth.shape} differ in shape")
    if not all_finite(raw):
        raise ValueError("raw outputs contain non-finite values; cannot calibrate")

    flat = raw.ravel()
    tflat = truth.ravel()
    # Group equal raw values (-0.0 and 0.0 are one group); crossing a group
    # flips its entries from predicted-1 to predicted-0 as the threshold
    # rises past it, which changes the error count by its ones minus zeros.
    distinct, group = np.unique(flat, return_inverse=True)
    flips = 2 * np.bincount(group, weights=tflat) - np.bincount(group)

    # errors[0]: threshold below the minimum (everything predicted 1, so
    # every zero is wrong); errors[i]: after the i smallest groups dropped
    # out of the predicted set.
    errors = np.cumsum(np.r_[tflat.size - tflat.sum(), flips])
    # Halving before adding keeps the midpoints finite near the largest
    # float, and for normal floats gives the same bits as (a + b) / 2.
    candidates = np.r_[distinct[0] - 1.0, distinct[:-1] / 2 + distinct[1:] / 2, distinct[-1] + 1.0]
    # Candidate i leaves distinct[i] predicted 1, so it must lie below it:
    # the midpoint of two adjacent floats can round up onto the upper one,
    # and distinct[0] - 1.0 rounds back onto distinct[0] past 2^53. Below
    # the lowest float is -inf, which decode takes.
    with np.errstate(over="ignore"):
        candidates[:-1] = np.minimum(candidates[:-1], np.nextafter(distinct, -np.inf))

    best_errors = int(errors.min())
    tied = candidates[errors == best_errors]
    threshold = float(min(tied, key=lambda t: (abs(t), t)))
    return ThresholdCalibration(threshold, best_errors / flat.size)

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

    Candidates are the midpoints of consecutive distinct raw values plus
    one candidate below the minimum and one above the maximum. The winner
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
    # Equal raw values form one group whose label counts are summed, and
    # -0.0 and 0.0 give the same candidates, so the order within a group
    # does not matter: the default sort is about 5x faster than a stable one.
    order = np.argsort(flat)
    sorted_vals = flat[order]
    sorted_truth = tflat[order].astype(np.int64)

    # Group equal raw values; crossing a group flips its entries from
    # predicted-1 to predicted-0 as the threshold rises past it.
    group_starts = np.r_[0, np.flatnonzero(np.diff(sorted_vals)) + 1]
    distinct = sorted_vals[group_starts]
    ones_per_group = np.add.reduceat(sorted_truth, group_starts)
    sizes = np.diff(np.r_[group_starts, sorted_vals.size])
    zeros_per_group = sizes - ones_per_group

    total_zeros = int(tflat.size - tflat.sum())
    # errors[0]: threshold below the minimum (everything predicted 1);
    # errors[i]: after groups 1..i dropped out of the predicted set.
    errors = np.concatenate(
        ([total_zeros], total_zeros + np.cumsum(ones_per_group - zeros_per_group))
    )
    candidates = np.concatenate(
        ([distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, [distinct[-1] + 1.0])
    )

    best_errors = int(errors.min())
    tied = candidates[errors == best_errors]
    threshold = float(min(tied, key=lambda t: (abs(t), t)))
    return ThresholdCalibration(threshold, best_errors / flat.size)

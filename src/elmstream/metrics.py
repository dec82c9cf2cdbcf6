"""Example-based multi-label evaluation metrics and dataset statistics.

Accuracy, precision, recall, and F1 are averaged per sample over the
predicted and true label sets. A per-example term with a zero denominator
counts as 1 when both sets are empty and 0 otherwise; this matters for
streaming predictions, which may legitimately be empty.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .labels import _as_label_matrix

__all__ = [
    "MetricsReport",
    "hamming_loss",
    "example_accuracy",
    "example_prf",
    "label_cardinality",
    "label_density",
    "compute_report",
    "format_report",
    "report_kv_lines",
]


def _pair(pred, truth):
    pred = _as_label_matrix(pred, "pred")
    truth = _as_label_matrix(truth, "truth")
    if pred.shape != truth.shape:
        raise ValueError(f"pred {pred.shape} and truth {truth.shape} differ in shape")
    return pred, truth


def hamming_loss(pred, truth) -> float:
    """Fraction of label slots where prediction and truth disagree."""
    pred, truth = _pair(pred, truth)
    return float(np.mean(pred != truth))


def example_accuracy(pred, truth) -> float:
    """Mean per-sample Jaccard index |Y&Z| / |Y|Z|; 1 when both sets empty."""
    pred, truth = _pair(pred, truth)
    inter = (pred & truth).sum(axis=1)
    union = (pred | truth).sum(axis=1)
    terms = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    return float(terms.mean())


def example_prf(pred, truth) -> tuple[float, float, float]:
    """Mean per-sample precision, recall, and F1 over label sets."""
    pred, truth = _pair(pred, truth)
    inter = (pred & truth).sum(axis=1)
    n_pred = pred.sum(axis=1)
    n_true = truth.sum(axis=1)
    both_empty = (n_pred == 0) & (n_true == 0)
    precision = np.where(n_pred > 0, inter / np.maximum(n_pred, 1), both_empty * 1.0)
    recall = np.where(n_true > 0, inter / np.maximum(n_true, 1), both_empty * 1.0)
    f1 = np.where(
        n_pred + n_true > 0, 2 * inter / np.maximum(n_pred + n_true, 1), 1.0
    )
    return float(precision.mean()), float(recall.mean()), float(f1.mean())


def label_cardinality(y) -> float:
    """Mean number of relevant labels per sample."""
    return float(_as_label_matrix(y).sum(axis=1).mean())


def label_density(y) -> float:
    """Label cardinality normalized by the number of labels."""
    y = np.asarray(y)
    return label_cardinality(y) / y.shape[1]


@dataclass(frozen=True)
class MetricsReport:
    """All example-based metrics plus timing for one evaluation run."""

    hamming_loss: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    empty_prediction_rate: float
    train_time: float
    test_time: float


def compute_report(pred, truth, train_time: float = 0.0, test_time: float = 0.0) -> MetricsReport:
    """Evaluate predictions against truth and bundle the results."""
    p, t = _pair(pred, truth)
    precision, recall, f1 = example_prf(p, t)
    report = MetricsReport(
        hamming_loss=hamming_loss(p, t),
        accuracy=example_accuracy(p, t),
        precision=precision,
        recall=recall,
        f1=f1,
        empty_prediction_rate=float(np.mean(p.sum(axis=1) == 0)),
        train_time=float(train_time),
        test_time=float(test_time),
    )
    for name in ("hamming_loss", "accuracy", "precision", "recall", "f1",
                 "empty_prediction_rate"):
        value = getattr(report, name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}={value} outside [0, 1]")
    return report


def report_kv_lines(report: MetricsReport) -> list[str]:
    """Machine-readable form: one 'name<TAB>value' line per metric, 6 dp."""
    return [f"{f.name}\t{getattr(report, f.name):.6f}" for f in fields(report)]


def format_report(report: MetricsReport) -> str:
    """Aligned two-column text table of the report."""
    names = [f.name for f in fields(report)]
    width = max(len(n) for n in names)
    lines = [f"{'metric':<{width}}  {'value':>12}"]
    lines += [f"{n:<{width}}  {getattr(report, n):>12.6f}" for n in names]
    return "\n".join(lines)

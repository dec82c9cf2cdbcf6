import itertools

import numpy as np
import pytest

from elmstream import metrics
from elmstream.metrics import (
    compute_report,
    format_report,
    hamming_loss,
    label_cardinality,
    label_density,
    report_kv_lines,
)


def set_oracle(pred_row, truth_row):
    """Per-example metrics via plain python sets."""
    z = {j for j, v in enumerate(pred_row) if v}
    y = {j for j, v in enumerate(truth_row) if v}
    m = len(pred_row)
    ham = sum((j in z) != (j in y) for j in range(m)) / m
    inter = len(y & z)
    acc = 1.0 if not (y | z) else inter / len(y | z)
    prec = (1.0 if not y else 0.0) if not z else inter / len(z)
    rec = (1.0 if not z else 0.0) if not y else inter / len(y)
    f1 = 1.0 if not (y or z) else 2 * inter / (len(y) + len(z))
    return ham, acc, prec, rec, f1


class TestHammingLoss:
    def test_ideal_classifier_is_zero(self):
        y = np.array([[1, 0, 1], [0, 1, 0]])
        assert hamming_loss(y, y) == 0.0

    def test_complement_is_one(self):
        y = np.array([[1, 0, 1], [0, 1, 0]])
        assert hamming_loss(1 - y, y) == 1.0

    def test_one_wrong_of_three(self):
        assert hamming_loss([[1, 1, 1]], [[1, 0, 1]]) == pytest.approx(1 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p = rng.integers(0, 2, size=(6, 4))
        t = rng.integers(0, 2, size=(6, 4))
        assert hamming_loss(p, t) == hamming_loss(t, p)

    def test_complement_identity(self):
        rng = np.random.default_rng(1)
        p = rng.integers(0, 2, size=(5, 3))
        t = rng.integers(0, 2, size=(5, 3))
        assert hamming_loss(p, t) + hamming_loss(1 - p, t) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_loss(np.zeros((2, 2), dtype=int), np.zeros((2, 3), dtype=int))


def scores(pred, truth):
    """(hamming, accuracy, precision, recall, f1) of compute_report."""
    r = compute_report(pred, truth)
    return r.hamming_loss, r.accuracy, r.precision, r.recall, r.f1


class TestExampleAccuracy:
    def test_exact_match(self):
        y = np.array([[1, 0, 1]])
        assert compute_report(y, y).accuracy == 1.0

    def test_disjoint_nonempty(self):
        assert compute_report([[1, 0, 0]], [[0, 1, 1]]).accuracy == 0.0

    def test_both_empty_counts_as_one(self):
        assert compute_report([[0, 0]], [[0, 0]]).accuracy == 1.0


class TestExamplePrf:
    def test_exact_match(self):
        y = np.array([[1, 1, 0]])
        assert scores(y, y)[2:] == (1.0, 1.0, 1.0)

    def test_empty_prediction_nonempty_truth(self):
        assert scores([[0, 0, 0]], [[1, 0, 1]])[2:] == (0.0, 0.0, 0.0)

    def test_nonempty_prediction_empty_truth(self):
        assert scores([[1, 0, 0]], [[0, 0, 0]])[2:] == (0.0, 0.0, 0.0)

    def test_random_against_set_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.integers(0, 2, size=(4, 3))
        t = rng.integers(0, 2, size=(4, 3))
        expected = np.mean([set_oracle(pr, tr) for pr, tr in zip(p, t)], axis=0)
        assert scores(p, t)[2:] == pytest.approx(tuple(expected[2:]), abs=1e-15)


def test_exhaustive_single_rows_match_oracle_exactly():
    # All 8x8 (pred, truth) single-row pairs at M=3, exact equality.
    rows = list(itertools.product((0, 1), repeat=3))
    for pr in rows:
        for tr in rows:
            p = np.array([pr])
            t = np.array([tr])
            expected = set_oracle(pr, tr)
            assert scores(p, t) == expected
            assert hamming_loss(p, t) == expected[0]


def test_exhaustive_two_row_aggregates_match_oracle():
    rows = list(itertools.product((0, 1), repeat=3))
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = np.array([rows[rng.integers(8)], rows[rng.integers(8)]])
        t = np.array([rows[rng.integers(8)], rows[rng.integers(8)]])
        agg = np.mean([set_oracle(pr, tr) for pr, tr in zip(p, t)], axis=0)
        assert abs(hamming_loss(p, t) - agg[0]) <= 1e-15
        assert np.all(np.abs(np.array(scores(p, t)) - agg) <= 1e-15)


def test_f1_term_dominates_accuracy_term():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = rng.integers(0, 2, size=(1, 5))
        t = rng.integers(0, 2, size=(1, 5))
        report = compute_report(p, t)
        assert report.f1 >= report.accuracy - 1e-15


class TestDatasetStatistics:
    def test_single_label_rows(self):
        y = np.eye(4, dtype=int)
        assert label_cardinality(y) == 1.0

    def test_all_ones_density(self):
        assert label_density(np.ones((3, 5), dtype=int)) == 1.0

    def test_density_is_cardinality_over_m(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, size=(12, 7))
        assert label_density(y) == label_cardinality(y) / 7

    def test_yeast_shaped_excerpt(self, yeast_excerpt):
        assert label_cardinality(yeast_excerpt.labels) == pytest.approx(4.24, abs=1e-12)
        assert label_density(yeast_excerpt.labels) == pytest.approx(4.24 / 14, abs=1e-12)

    def test_scene_shaped_excerpt(self, scene_excerpt):
        assert label_cardinality(scene_excerpt.labels) == pytest.approx(1.06, abs=1e-12)
        assert label_density(scene_excerpt.labels) == pytest.approx(1.06 / 6, abs=1e-12)


class TestReport:
    def test_compute_report_fields(self):
        pred = np.array([[1, 0], [0, 0]])
        truth = np.array([[1, 0], [0, 1]])
        report = compute_report(pred, truth, train_time=1.5, test_time=0.25)
        assert report.hamming_loss == 0.25
        assert report.empty_prediction_rate == 0.5
        assert report.train_time == 1.5
        assert report.test_time == 0.25

    def test_kv_lines_format(self):
        report = compute_report(np.array([[1, 0]]), np.array([[1, 0]]))
        lines = report_kv_lines(report)
        assert lines[0] == "hamming_loss\t0.000000"
        assert all(len(line.split("\t")) == 2 for line in lines)
        names = [line.split("\t")[0] for line in lines]
        assert names == [
            "hamming_loss", "accuracy", "precision", "recall", "f1",
            "empty_prediction_rate", "train_time", "test_time",
        ]

    def test_table_mentions_every_metric(self):
        report = compute_report(np.array([[1, 0]]), np.array([[0, 1]]))
        text = format_report(report)
        for name in ("hamming_loss", "accuracy", "f1", "test_time"):
            assert name in text

    def test_fractions_in_unit_interval(self):
        rng = np.random.default_rng(6)
        p = rng.integers(0, 2, size=(9, 4))
        t = rng.integers(0, 2, size=(9, 4))
        report = compute_report(p, t)
        for name in ("hamming_loss", "accuracy", "precision", "recall", "f1",
                     "empty_prediction_rate"):
            assert 0.0 <= getattr(report, name) <= 1.0

    def test_checks_its_pair_once_and_agrees_with_the_set_oracle(self, monkeypatch):
        rng = np.random.default_rng(7)
        p = rng.integers(0, 2, size=(11, 5))
        t = rng.integers(0, 2, size=(11, 5))
        p[0], t[0] = 0, 0  # one row where both sets are empty
        calls = []
        checked = metrics._pair
        monkeypatch.setattr(metrics, "_pair", lambda *pair: calls.append(1) or checked(*pair))
        report = compute_report(p, t)
        assert len(calls) == 1
        assert report.hamming_loss == hamming_loss(p, t)
        expected = np.mean([set_oracle(pr, tr) for pr, tr in zip(p, t)], axis=0)
        assert np.all(np.abs(np.array(scores(p, t)) - expected) <= 1e-15)
        assert report.empty_prediction_rate == np.mean(p.sum(axis=1) == 0)

import itertools

import numpy as np
import pytest

from elmstream.labels import calibrate_threshold, decode, to_bipolar
from elmstream.metrics import hamming_loss


def sweep_oracle(raw, truth):
    """Brute-force scan of every candidate midpoint, scored by loops."""
    values = sorted(set(raw.ravel().tolist()))
    candidates = [values[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(values, values[1:])]
    candidates += [values[-1] + 1.0]
    scored = []
    for t in candidates:
        errors = 0
        for i in range(raw.shape[0]):
            for j in range(raw.shape[1]):
                pred = 1 if raw[i, j] > t else 0
                errors += pred != truth[i, j]
        scored.append((errors / raw.size, t))
    best = min(s for s, _ in scored)
    tied = [t for s, t in scored if s == best]
    return min(tied, key=lambda t: (abs(t), t)), best, len(candidates)


class TestBipolar:
    def test_basic_mapping(self):
        assert np.array_equal(to_bipolar([[0, 1, 0]]), [[-1.0, 1.0, -1.0]])

    def test_all_ones_row(self):
        assert np.array_equal(to_bipolar([[1, 1, 1]]), [[1.0, 1.0, 1.0]])

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=(20, 5))
        assert np.array_equal(to_bipolar(y), 2 * y - 1)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            to_bipolar([[0, 2]])


class TestDecode:
    def test_basic(self):
        out = decode(np.array([[0.5, -0.2, 0.7]]), 0.0)
        assert np.array_equal(out, [[1, 0, 1]])

    def test_threshold_above_max_gives_empty_sets(self):
        raw = np.array([[0.1, 0.9], [0.3, 0.2]])
        assert decode(raw, 1.0).sum() == 0

    def test_consistent_with_encoding(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=(10, 4))
        assert np.array_equal(decode(to_bipolar(y), 0.0), y)

    def test_strict_inequality(self):
        assert np.array_equal(decode(np.array([[0.5]]), 0.5), [[0]])

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(8, 5))
        prev = decode(raw, -10.0)
        for t in np.linspace(-2.0, 2.0, 21):
            cur = decode(raw, t)
            assert np.all(cur <= prev)  # raising t never adds a label
            prev = cur

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            decode(np.array([[np.nan]]), 0.0)


class TestCalibrateThreshold:
    def test_perfectly_separated_bipolar(self):
        truth = np.array([[1, 0], [0, 1], [1, 1]])
        raw = np.where(truth == 1, 0.9, -0.9)
        cal = calibrate_threshold(raw, truth)
        assert cal.threshold == 0.0
        assert cal.training_hamming == 0.0

    def test_adversarial_inversion(self):
        # Relevant raws at -1, irrelevant at +1: the natural bipolar
        # boundary t=0 gets everything wrong; the minimizer is a boundary
        # candidate at 0.5 for this balanced case.
        truth = np.array([[1, 0], [0, 1]])
        raw = np.where(truth == 1, -1.0, 1.0)
        assert hamming_loss(decode(raw, 0.0), truth) == 1.0
        cal = calibrate_threshold(raw, truth)
        assert cal.training_hamming == 0.5
        assert cal.threshold in (-2.0, 2.0)
        assert cal.threshold == -2.0  # tie at |t|=2 broken toward the smaller

    def test_matches_exhaustive_sweep_small(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = np.round(rng.normal(size=(3, 2)), 2)
            truth = rng.integers(0, 2, size=(3, 2))
            cal = calibrate_threshold(raw, truth)
            t_oracle, h_oracle, n_oracle = sweep_oracle(raw, truth)
            assert cal.threshold == t_oracle
            assert cal.training_hamming == pytest.approx(h_oracle, abs=1e-15)
            assert cal.candidates_evaluated == n_oracle

    def test_global_minimizer_by_rescan(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(25, 3))
        truth = rng.integers(0, 2, size=(25, 3))
        cal = calibrate_threshold(raw, truth)
        values = np.unique(raw.ravel())
        candidates = np.concatenate(
            ([values[0] - 1.0], (values[:-1] + values[1:]) / 2, [values[-1] + 1.0])
        )
        losses = [hamming_loss(decode(raw, t), truth) for t in candidates]
        assert cal.training_hamming == pytest.approx(min(losses), abs=1e-15)
        assert all(cal.training_hamming <= l + 1e-15 for l in losses)

    def test_duplicate_raw_values_grouped(self):
        raw = np.array([[0.5, 0.5, -0.5, -0.5]])
        truth = np.array([[1, 1, 0, 0]])
        cal = calibrate_threshold(raw, truth)
        assert cal.threshold == 0.0
        assert cal.training_hamming == 0.0
        assert cal.candidates_evaluated == 3  # below, midpoint, above

    def test_tie_break_prefers_near_zero(self):
        # Any threshold inside (-3, 5) is perfect; midpoint candidates are
        # 1.0 for this data, so the winner is the candidate closest to 0.
        raw = np.array([[5.0, -3.0]])
        truth = np.array([[1, 0]])
        cal = calibrate_threshold(raw, truth)
        assert cal.threshold == 1.0
        assert cal.training_hamming == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            calibrate_threshold(np.array([[np.inf]]), np.array([[1]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            calibrate_threshold(np.zeros((2, 2)), np.zeros((2, 3), dtype=int))


def test_exhaustive_two_value_patterns():
    # Every binary truth pattern over a fixed 2x2 raw grid agrees with the
    # brute-force sweep, including all-relevant and all-irrelevant cases.
    raw = np.array([[0.25, -0.75], [1.5, 0.25]])
    for bits in itertools.product((0, 1), repeat=4):
        truth = np.array(bits).reshape(2, 2)
        cal = calibrate_threshold(raw, truth)
        t_oracle, h_oracle, _ = sweep_oracle(raw, truth)
        assert cal.threshold == t_oracle
        assert cal.training_hamming == pytest.approx(h_oracle, abs=1e-15)

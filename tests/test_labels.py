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
    return min(tied, key=lambda t: (abs(t), t)), best


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

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.bool_])
    def test_byte_labels_match_the_affine_map_bit_for_bit(self, dtype):
        y = np.random.default_rng(5).integers(0, 2, size=(30, 14)).astype(dtype)
        for labels in (y, y[:, ::3], y.T):
            out = to_bipolar(labels)
            expected = 2.0 * labels - 1.0
            assert out.dtype == np.float64 and out.shape == labels.shape
            assert out.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize(
        "bad", [np.int8(-1), np.int8(2), np.int8(-128), np.uint8(255)], ids=repr
    )
    def test_byte_labels_out_of_range_rejected(self, bad):
        y = np.zeros((3, 4), dtype=bad.dtype)
        y[1, 2] = bad
        with pytest.raises(ValueError, match="^labels entries must all be 0 or 1$"):
            to_bipolar(y)

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.array([0, 1], dtype=np.int8), "labels must be 2-D, got ndim=1"),
            (np.zeros((2, 2, 2), dtype=np.int8), "labels must be 2-D, got ndim=3"),
            (np.zeros((0, 3), dtype=np.int8), "labels must have at least one row and one column"),
            ([[]], "labels must have at least one row and one column"),
            (np.array([[0.0, 0.5]]), "labels entries must all be 0 or 1"),
            (np.array([[0, 2]], dtype=np.int64), "labels entries must all be 0 or 1"),
        ],
        ids=["1-D", "3-D", "empty_int8", "empty_list", "float_half", "int64_two"],
    )
    def test_other_inputs_keep_their_messages(self, labels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            to_bipolar(labels)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_other_dtypes_are_checked_then_mapped(self, dtype):
        y = np.array([[0, 1, 1], [1, 0, 0]], dtype=dtype)
        out = to_bipolar(y)
        assert out.dtype == np.float64
        assert out.tobytes() == (2.0 * y.astype(np.int8) - 1.0).tobytes()


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

    def test_rejects_one_dimensional_outputs(self):
        with pytest.raises(ValueError, match="^raw outputs must be 2-D, got ndim=1$"):
            decode(np.array([0.5, -0.2]), 0.0)

    def test_infinite_thresholds_give_all_or_no_labels(self):
        raw = np.array([[1e300, -1e300, 0.0]])
        assert np.array_equal(decode(raw, -np.inf), [[1, 1, 1]])
        assert np.array_equal(decode(raw, np.inf), [[0, 0, 0]])

    def test_numpy_and_integer_scalars_accepted(self):
        raw = np.array([[0.5, -0.2, 1.0]])
        for t in (np.float64(0.5), np.float32(0.5), 0, np.int64(0)):
            assert np.array_equal(decode(raw, t), (raw > t).astype(np.int8))

    def test_nan_threshold_rejected(self):
        # raw > NaN is false everywhere: every label set would come back empty.
        with pytest.raises(ValueError, match="^threshold is NaN$"):
            decode(np.array([[0.5]]), np.nan)

    @pytest.mark.parametrize(
        "threshold", [np.array([0.0, -0.5]), np.array([0.0]), np.array(0.0), [0.0], "0.5", None],
        ids=["per_label", "length_one", "zero_d", "list", "str", "none"],
    )
    def test_non_scalar_threshold_rejected(self, threshold):
        # An array would broadcast: each label decoded against its own threshold.
        with pytest.raises(ValueError, match="^threshold must be a real scalar"):
            decode(np.array([[0.5, -0.2]]), threshold)


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
            t_oracle, h_oracle = sweep_oracle(raw, truth)
            assert cal.threshold == t_oracle
            assert cal.training_hamming == pytest.approx(h_oracle, abs=1e-15)

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
        # No threshold splits equal raw values, whatever their truth.
        cal = calibrate_threshold(np.array([[0.5, 0.5]]), np.array([[1, 0]]))
        assert cal.training_hamming == 0.5

    def test_tie_break_prefers_near_zero(self):
        # Any threshold inside (-3, 5) is perfect; midpoint candidates are
        # 1.0 for this data, so the winner is the candidate closest to 0.
        raw = np.array([[5.0, -3.0]])
        truth = np.array([[1, 0]])
        cal = calibrate_threshold(raw, truth)
        assert cal.threshold == 1.0
        assert cal.training_hamming == 0.0

    @pytest.mark.parametrize("decimals", [1, 2])
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_unstable_sort_matches_a_stable_one(self, decimals, seed):
        # Tie-heavy raw values of a 600 x 14 calibration block, with -0.0 and
        # 0.0 mixed. np.unique groups them with an unstable sort, so the order
        # within a run of equal values is arbitrary: the same (raw, truth)
        # pairs in another order, with the zeros' signs drawn again, must
        # give the same bits.
        rng = np.random.default_rng(seed)
        raw = np.round(rng.normal(scale=0.3, size=(600, 14)), decimals)
        truth = (raw + rng.normal(scale=0.2, size=raw.shape) > 0).astype(np.int8)

        def mix_zero_signs(a):
            zeros = a == 0.0
            a[zeros] = np.where(rng.integers(0, 2, zeros.sum()) == 1, -0.0, 0.0)
            assert np.signbit(a[zeros]).any() and not np.signbit(a[zeros]).all()
            return a

        cal = calibrate_threshold(mix_zero_signs(raw), truth)
        order = rng.permutation(raw.size)
        shuffled = mix_zero_signs(raw.ravel()[order].reshape(raw.shape))
        reference = calibrate_threshold(shuffled, truth.ravel()[order].reshape(raw.shape))
        assert repr(cal.threshold) == repr(reference.threshold)
        assert cal.training_hamming == reference.training_hamming

    @pytest.mark.parametrize("pair", [(1.7e308, 1.75e308), (-1.75e308, -1.7e308)])
    def test_midpoint_near_the_largest_float_is_finite(self, pair):
        # (a + b) / 2 overflows here; the suite turns numpy's warning into
        # an error.
        cal = calibrate_threshold(np.array([pair]), np.array([[0, 1]]))
        assert pair[0] < cal.threshold < pair[1]
        assert cal.training_hamming == 0.0

    @pytest.mark.parametrize(
        "raw, truth",
        [
            # adjacent floats, the lower one odd: the midpoint ties to the upper
            ([[1.0000000000000002, 1.0000000000000004]], [[0, 1]]),
            ([[-1.0000000000000007, -1.0000000000000004]], [[0, 1]]),
            ([[5e-324, 1e-323]], [[0, 1]]),  # the same in subnormals
            ([[-5e-324, 0.0]], [[0, 1]]),
            # min - 1.0 rounds back onto the minimum
            ([[1e300, 2e300]], [[1, 1]]),
            ([[2.0**60, 2.0**61, 2.0**62]], [[1, 1, 1]]),
            ([[-1.7976931348623157e308, 0.0]], [[1, 1]]),  # only -inf is lower
        ],
        ids=["adjacent", "adjacent_negative", "subnormal", "below_zero", "huge", "past_2_53",
             "lowest_float"],
    )
    def test_threshold_decodes_to_the_hamming_it_reports(self, raw, truth):
        raw, truth = np.array(raw), np.array(truth)
        cal = calibrate_threshold(raw, truth)
        assert cal.training_hamming == 0.0
        assert hamming_loss(decode(raw, cal.threshold), truth) == 0.0

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
        t_oracle, h_oracle = sweep_oracle(raw, truth)
        assert cal.threshold == t_oracle
        assert cal.training_hamming == pytest.approx(h_oracle, abs=1e-15)

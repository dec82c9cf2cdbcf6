import numpy as np
import pytest

from conftest import batch_beta, synthetic_stream
from elmstream.data import DataError, Normalizer, StreamPlan, stream_blocks
from elmstream.labels import to_bipolar
from elmstream.model import (
    HiddenLayer,
    OselmModel,
    hidden_output,
    init_hidden,
    init_phase,
    load_model,
    predict_raw,
    save_model,
    update,
)
from elmstream.numerics import (
    NumericalError,
    ShapeError,
    SingularMatrixError,
)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestInitHidden:
    def test_same_seed_is_bit_identical(self):
        a = init_hidden(5, 9, "sigmoid", seed=3)
        b = init_hidden(5, 9, "sigmoid", seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_different_seeds_differ(self):
        a = init_hidden(5, 9, "sigmoid", seed=1)
        b = init_hidden(5, 9, "sigmoid", seed=2)
        assert not np.array_equal(a.weights, b.weights)

    def test_yeast_shaped_dimensions(self):
        layer = init_hidden(103, 100, "sigmoid", seed=0)
        assert layer.weights.shape == (100, 103)
        assert layer.biases.shape == (100,)

    def test_ranges(self):
        layer = init_hidden(30, 200, "sigmoid", seed=4)
        assert layer.weights.min() >= -1.0 and layer.weights.max() <= 1.0
        assert layer.biases.min() >= 0.0 and layer.biases.max() <= 1.0

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            init_hidden(0, 5)
        with pytest.raises(ValueError):
            init_hidden(5, 0)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            init_hidden(3, 3, "relu")

    def test_weights_are_frozen(self):
        layer = init_hidden(3, 3, seed=0)
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 5.0


class TestHiddenOutput:
    def test_zero_layer_sigmoid_gives_half(self):
        layer = HiddenLayer(
            weights=np.zeros((4, 3)), biases=np.zeros(4), activation="sigmoid"
        )
        out = hidden_output(layer, np.ones((2, 3)))
        assert np.array_equal(out, np.full((2, 4), 0.5))

    def test_hardlim_is_binary(self):
        layer = init_hidden(6, 10, "hardlim", seed=5)
        out = hidden_output(layer, np.random.default_rng(0).normal(size=(7, 6)))
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_sine_range(self):
        layer = init_hidden(6, 10, "sine", seed=6)
        out = hidden_output(layer, np.random.default_rng(1).normal(size=(7, 6)))
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_sigmoid_open_unit_interval(self):
        layer = init_hidden(4, 8, "sigmoid", seed=7)
        out = hidden_output(layer, np.random.default_rng(2).uniform(-1, 1, (20, 4)))
        assert out.min() > 0.0 and out.max() < 1.0

    def test_matches_scalar_evaluation(self):
        layer = init_hidden(3, 2, "sigmoid", seed=8)
        x = np.array([[0.3, -0.7, 0.1]])
        out = hidden_output(layer, x)
        for i in range(2):
            expected = sigmoid(float(layer.weights[i] @ x[0] + layer.biases[i]))
            assert out[0, i] == pytest.approx(expected, abs=1e-12)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        layer = HiddenLayer(
            weights=np.array([[1.0], [-1.0]]), biases=np.zeros(2), activation="sigmoid"
        )
        out = hidden_output(layer, np.array([[1e4], [-1e4]]))
        assert np.isfinite(out).all()

    def test_dimension_mismatch(self):
        layer = init_hidden(3, 2, seed=9)
        with pytest.raises(ShapeError):
            hidden_output(layer, np.ones((2, 4)))

    def test_overflowing_projection_rejected(self):
        # tanh would saturate the overflowed pre-activation to a finite 1.0.
        layer = HiddenLayer(weights=np.ones((2, 2)), biases=np.zeros(2), activation="sigmoid")
        with pytest.raises(NumericalError):
            hidden_output(layer, np.array([[1e308, 1e308]]))


@pytest.fixture
def square_init():
    """Initial block with exactly hidden_count rows: exact interpolation.

    Seeds chosen for a well-conditioned square hidden matrix (cond ~2e2)
    so interpolation holds to full precision.
    """
    rng = np.random.default_rng(0)
    layer = init_hidden(4, 6, "sigmoid", seed=100)
    x0 = rng.uniform(-1, 1, (6, 4))
    y0 = to_bipolar(rng.integers(0, 2, (6, 3)))
    return layer, x0, y0


class TestInitPhase:
    def test_all_positive_targets_interpolated(self):
        rng = np.random.default_rng(20)
        layer = init_hidden(4, 6, "sigmoid", seed=20)
        x0 = rng.uniform(-1, 1, (6, 4))
        y0 = np.ones((6, 2))
        model = init_phase(layer, x0, y0)
        assert np.max(np.abs(predict_raw(model, x0) - 1.0)) <= 1e-6

    def test_beta_matches_pinv_path(self):
        rng = np.random.default_rng(23)
        layer = init_hidden(5, 8, "sigmoid", seed=24)
        x0 = rng.uniform(-1, 1, (20, 5))
        y0 = to_bipolar(rng.integers(0, 2, (20, 4)))
        model = init_phase(layer, x0, y0, ridge=0.0)
        h0 = hidden_output(layer, x0)
        beta_direct = batch_beta(h0, y0)
        assert np.max(np.abs(model.beta - beta_direct)) <= 1e-10

    def test_beta_matches_pinv_path_with_ridge(self):
        rng = np.random.default_rng(25)
        layer = init_hidden(5, 8, "sigmoid", seed=26)
        x0 = rng.uniform(-1, 1, (20, 5))
        y0 = to_bipolar(rng.integers(0, 2, (20, 4)))
        model = init_phase(layer, x0, y0, ridge=0.5)
        h0 = hidden_output(layer, x0)
        beta_direct = batch_beta(h0, y0, 0.5)
        assert np.max(np.abs(model.beta - beta_direct)) <= 1e-10

    def test_yeast_shaped_block_runs(self):
        ds = synthetic_stream(160, 103, 14, seed=27)
        layer = init_hidden(103, 100, "sigmoid", seed=28)
        model = init_phase(layer, ds.features, to_bipolar(ds.labels))
        assert model.samples_seen == 160
        assert model.blocks_seen == 1
        assert model.threshold == 0.0

    def test_underdetermined_without_ridge_is_singular(self):
        rng = np.random.default_rng(29)
        layer = init_hidden(3, 10, "sigmoid", seed=30)
        x0 = rng.uniform(-1, 1, (5, 3))
        y0 = to_bipolar(rng.integers(0, 2, (5, 2)))
        with pytest.raises(SingularMatrixError):
            init_phase(layer, x0, y0, ridge=0.0)
        model = init_phase(layer, x0, y0, ridge=1e-3)
        assert model.samples_seen == 5

    def test_rejects_non_bipolar_targets(self, square_init):
        layer, x0, _ = square_init
        with pytest.raises(ValueError, match="bipolar"):
            init_phase(layer, x0, np.ones((6, 3)) * 0.5)

    def test_rejects_row_mismatch(self, square_init):
        layer, x0, y0 = square_init
        with pytest.raises(ShapeError):
            init_phase(layer, x0[:-1], y0)

    def test_rejects_negative_ridge(self, square_init):
        layer, x0, y0 = square_init
        for ridge in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
                init_phase(layer, x0, y0, ridge=ridge)

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_gram_inv_exactly_symmetric(self, ridge):
        rng = np.random.default_rng(21)
        layer = init_hidden(5, 8, "sigmoid", seed=22)
        x0 = rng.uniform(-1, 1, (20, 5))
        y0 = to_bipolar(rng.integers(0, 2, (20, 4)))
        model = init_phase(layer, x0, y0, ridge=ridge)
        assert np.array_equal(model.gram_inv, model.gram_inv.T)


def stream_fixture(seed=31, n=200, d=10, m=3, hidden=20):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    y = to_bipolar(rng.integers(0, 2, (n, m)))
    layer = init_hidden(d, hidden, "sigmoid", seed=seed + 1)
    return layer, x, y


class TestUpdate:
    def test_stream_matches_batch_solution(self):
        layer, x, y = stream_fixture()
        model = init_phase(layer, x[:30], y[:30])
        for i in range(30, 200):
            update(model, x[i : i + 1], y[i : i + 1])
        beta_batch = batch_beta(hidden_output(layer, x), y)
        assert np.max(np.abs(model.beta - beta_batch)) <= 1e-6
        assert model.samples_seen == 200
        assert model.blocks_seen == 1 + 170

    def test_block_equals_chained_singles(self):
        layer, x, y = stream_fixture(seed=33)
        chained = init_phase(layer, x[:30], y[:30])
        blocked = init_phase(layer, x[:30], y[:30])
        for i in range(30, 200):
            update(chained, x[i : i + 1], y[i : i + 1])
        for s in range(30, 200, 17):
            update(blocked, x[s : s + 17], y[s : s + 17])
        assert np.max(np.abs(blocked.beta - chained.beta)) <= 1e-8

    def test_duplicate_interpolated_sample_is_noop_for_beta(self, square_init):
        layer, x0, y0 = square_init
        model = init_phase(layer, x0, y0)
        before = model.beta.copy()
        update(model, x0[:1], y0[:1])
        assert np.max(np.abs(model.beta - before)) <= 1e-10

    def test_symmetry_preserved(self):
        layer, x, y = stream_fixture(seed=35)
        model = init_phase(layer, x[:30], y[:30])
        for s in range(30, 200, 11):
            update(model, x[s : s + 11], y[s : s + 11])
            asym = np.max(np.abs(model.gram_inv - model.gram_inv.T))
            assert asym <= 1e-8

    def test_order_insensitive_final_beta(self):
        layer, x, y = stream_fixture(seed=37)
        forward = init_phase(layer, x[:30], y[:30])
        permuted = init_phase(layer, x[:30], y[:30])
        order = np.random.default_rng(38).permutation(np.arange(30, 200))
        for i in range(30, 200):
            update(forward, x[i : i + 1], y[i : i + 1])
        for i in order:
            update(permuted, x[i : i + 1], y[i : i + 1])
        assert np.max(np.abs(forward.beta - permuted.beta)) <= 1e-6

    def test_exactly_symmetric_after_single_and_block_updates(self):
        # Sizes at which OpenBLAS's general gemm for V'V is not exactly
        # symmetric, so an update that loses the syrk path shows here.
        layer, x, y = stream_fixture(seed=36, hidden=50)
        model = init_phase(layer, x[:60], y[:60])
        for i in range(60, 100):
            update(model, x[i : i + 1], y[i : i + 1])
        assert np.array_equal(model.gram_inv, model.gram_inv.T)
        for s in range(100, 200, 17):
            update(model, x[s : s + 17], y[s : s + 17])
        assert np.array_equal(model.gram_inv, model.gram_inv.T)

    def test_block_beta_matches_textbook_formula(self):
        layer, x, y = stream_fixture(seed=44)
        model = init_phase(layer, x[:30], y[:30])
        m, beta = model.gram_inv.copy(), model.beta.copy()
        h = hidden_output(layer, x[30:42])
        m_new = m - m @ h.T @ np.linalg.inv(np.eye(12) + h @ m @ h.T) @ h @ m
        expected = beta + m_new @ h.T @ (y[30:42] - h @ beta)
        update(model, x[30:42], y[30:42])
        assert np.max(np.abs(model.beta - expected)) <= 1e-10

    def test_single_sample_downdate_is_the_rounded_outer_product(self):
        # The rank-one product goes through BLAS; each entry must still be
        # the one rounded product g_i g_j that np.outer gives.
        layer, x, y = stream_fixture(seed=45)
        model = init_phase(layer, x[:30], y[:30])
        m = model.gram_inv.copy()
        hv = hidden_output(layer, x[30:31])[0]
        mh = m @ hv
        g = mh / np.sqrt(1.0 + hv @ mh)
        update(model, x[30:31], y[30:31])
        assert np.array_equal(model.gram_inv, m - np.outer(g, g))

    @pytest.mark.parametrize("rows", [1, 17])
    def test_returns_the_raw_outputs_predicted_before_learning(self, rows):
        layer, x, y = stream_fixture(seed=46)
        model = init_phase(layer, x[:30], y[:30])
        for start in (30, 30 + rows):
            xb, yb = x[start : start + rows], y[start : start + rows]
            before = predict_raw(model, xb)
            raw = update(model, xb, yb)
            assert raw.shape == (rows, 3)
            assert raw.tobytes() == before.tobytes()
        assert model.samples_seen == 30 + 2 * rows

    @staticmethod
    def corrupted_model():
        layer = init_hidden(2, 2, "sigmoid", seed=39)
        return OselmModel(
            hidden=layer,
            gram_inv=-10.0 * np.eye(2),  # corrupted state: not positive-definite
            beta=np.zeros((2, 1)),
            samples_seen=4,
            blocks_seen=1,
        )

    @staticmethod
    def assert_unchanged(model):
        assert np.array_equal(model.gram_inv, -10.0 * np.eye(2))
        assert np.array_equal(model.beta, np.zeros((2, 1)))
        assert (model.samples_seen, model.blocks_seen) == (4, 1)

    def test_breakdown_detected(self):
        model = self.corrupted_model()
        with pytest.raises(NumericalError, match="positive-definite"):
            update(model, np.array([[0.5, 0.5]]), np.array([[1.0]]))
        self.assert_unchanged(model)

    def test_block_breakdown_detected(self):
        model = self.corrupted_model()
        x = np.array([[0.5, 0.5], [-0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError):
            update(model, x, np.ones((3, 1)))
        self.assert_unchanged(model)

    def test_rejects_uninitialized_model(self):
        layer = init_hidden(2, 2, seed=40)
        model = OselmModel(hidden=layer, gram_inv=np.eye(2), beta=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="initialized"):
            update(model, np.ones((1, 2)), np.ones((1, 1)))

    def test_rejects_empty_batch(self, square_init):
        layer, x0, y0 = square_init
        model = init_phase(layer, x0, y0)
        with pytest.raises(ShapeError, match="at least one sample"):
            update(model, x0[:0], y0[:0])

    def test_rejects_label_width_mismatch(self, square_init):
        layer, x0, y0 = square_init
        model = init_phase(layer, x0, y0)
        with pytest.raises(ShapeError):
            update(model, x0[:1], y0[:1, :2])


class TestPredictRaw:
    def test_zero_beta_gives_zeros(self, square_init):
        layer, x0, y0 = square_init
        model = init_phase(layer, x0, y0)
        model.beta = np.zeros_like(model.beta)
        assert np.array_equal(predict_raw(model, x0), np.zeros((6, 3)))

    def test_matches_external_composition(self, square_init):
        layer, x0, y0 = square_init
        model = init_phase(layer, x0, y0)
        external = hidden_output(layer, x0) @ model.beta
        assert np.max(np.abs(predict_raw(model, x0) - external)) <= 1e-12

    def test_exact_interpolation_on_square_init(self, square_init):
        layer, x0, y0 = square_init
        model = init_phase(layer, x0, y0)
        assert np.max(np.abs(predict_raw(model, x0) - y0)) <= 1e-6


class TestStreamingAtYeastShape:
    def test_fifty_one_blocks_run(self):
        ds = synthetic_stream(1500, 103, 14, seed=41)
        blocks = stream_blocks(ds, StreamPlan(100, 28))
        layer = init_hidden(103, 80, "sigmoid", seed=42)
        model = init_phase(layer, blocks[0].features, to_bipolar(blocks[0].labels))
        for blk in blocks[1:]:
            update(model, blk.features, to_bipolar(blk.labels))
        assert model.blocks_seen == 51
        assert model.samples_seen == 1500


def _replace_field(key, value):
    """Corruption that rewrites the header line of ``key`` as ``key value``."""

    def corrupt(header, floats):
        lines = header.split("\n")
        i = next(n for n, line in enumerate(lines) if line.split()[0] == key)
        lines[i] = f"{key} {value}"
        return "\n".join(lines), floats

    return corrupt


def _replace_float(at, change):
    """Corruption that replaces payload float ``at`` by ``change`` of it."""

    def corrupt(header, floats):
        floats[at] = change(floats[at])
        return header, floats

    return corrupt


# Float offsets in the payload of TestSerialization's model (8 hidden
# neurons, 5 features, 2 labels): weights 0-39, biases 40-47, gram_inv
# 48-111, beta 112-127, normalizer scale 128-132 and offset 133-137.
_BIASES = 40
_GRAM_INV = 48


class TestSerialization:
    def make_model(self):
        layer, x, y = stream_fixture(seed=43, n=40, d=5, m=2, hidden=8)
        model = init_phase(layer, x[:10], y[:10])
        for s in range(10, 40, 10):
            update(model, x[s : s + 10], y[s : s + 10])
        model.threshold = 0.1234567890123456789
        return model

    def test_round_trip_values(self, tmp_path):
        model = self.make_model()
        norm = Normalizer(scale=np.array([0.5, 1.0, 2.0, 0.0, 1.5]),
                          offset=np.array([0.1, -0.2, 0.0, 0.0, 0.3]))
        path = tmp_path / "model.txt"
        save_model(path, model, norm)
        loaded, norm_back = load_model(path)
        assert np.array_equal(loaded.beta, model.beta)
        assert np.array_equal(loaded.gram_inv, model.gram_inv)
        assert np.array_equal(loaded.hidden.weights, model.hidden.weights)
        assert np.array_equal(loaded.hidden.biases, model.hidden.biases)
        assert loaded.threshold == model.threshold
        assert loaded.samples_seen == model.samples_seen
        assert loaded.blocks_seen == model.blocks_seen
        assert loaded.hidden.activation == model.hidden.activation
        assert np.array_equal(norm_back.scale, norm.scale)
        assert np.array_equal(norm_back.offset, norm.offset)

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = self.make_model()
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_model(p1, model)
        loaded, norm = load_model(p1)
        assert norm is None
        save_model(p2, loaded, norm)
        assert p1.read_bytes() == p2.read_bytes()

    def test_identical_stream_gives_identical_bytes(self, tmp_path):
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_model(p1, self.make_model())
        save_model(p2, self.make_model())
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not a model\n")
        with pytest.raises(DataError):
            load_model(p)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(p, self.make_model())
        data = bytearray(p.read_bytes())
        data[data.index(b"sigmoid")] = 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(DataError, match=r"m.txt: not UTF-8"):
            load_model(p)

    def test_truncated_file_rejected(self, tmp_path):
        model = self.make_model()
        p = tmp_path / "m.txt"
        save_model(p, model)
        data = p.read_bytes()
        for cut in (len(data) // 2, len(data) - 1, data.index(b"hidden_count")):
            p.write_bytes(data[:cut])
            with pytest.raises(DataError, match="m.txt"):
                load_model(p)

    def test_version_1_file_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("elmstream-model 1\nactivation sigmoid\ninput_dim 1\n")
        with pytest.raises(DataError, match=r"m.txt: not an elmstream-model v2 file"):
            load_model(p)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda h, v: (h, np.delete(v, _BIASES)),  # one bias short
            _replace_field("threshold", "nan"),
            lambda h, v: (h, v[:-1]),  # normalizer offset one short
            _replace_float(_GRAM_INV, lambda x: np.nan),
            _replace_field("samples_seen", -7),
            _replace_field("blocks_seen", 0),
            _replace_field("input_dim", "x"),
            lambda h, v: (h, np.insert(v, _BIASES, 0.5)),  # weights one float long
            _replace_float(_GRAM_INV + 1, lambda x: 3.0 * x),
        ],
        ids=["broadcast_bias", "nan_threshold", "normalizer_width", "nan_gram_inv",
             "negative_samples_seen", "zero_blocks_seen", "non_integer_input_dim",
             "negative_weights_rows", "asymmetric_gram_inv"],
    )
    def test_inconsistent_or_nonfinite_content_rejected(self, tmp_path, corrupt):
        model = self.make_model()
        norm = Normalizer(scale=np.ones(5), offset=np.zeros(5))
        path = tmp_path / "m.txt"
        save_model(path, model, norm)
        header, end, payload = path.read_bytes().partition(b"\nend\n")
        header, floats = corrupt(header.decode(), np.frombuffer(payload, "<f8").copy())
        path.write_bytes(header.encode() + end + floats.astype("<f8").tobytes())
        with pytest.raises(DataError) as excinfo:
            load_model(path)
        assert str(path) in str(excinfo.value)

import contextlib
import copy
import pickle

import numpy as np
import pytest

from conftest import batch_beta, synthetic_stream
from elmstream.data import DataError, Normalizer, StreamPlan, stream_blocks
from elmstream.labels import to_bipolar
from elmstream.model import (
    _PENDING_ROWS,
    _capacity,
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

    def test_ranges_are_reached(self):
        # 200,000 weights and 20,000 biases: each documented end is approached.
        layer = init_hidden(10, 20_000, "sigmoid", seed=5)
        w, b = layer.weights, layer.biases
        assert -1.0 <= w.min() < -0.999 and 0.999 < w.max() <= 1.0
        assert 0.0 <= b.min() < 0.001 and 0.999 < b.max() <= 1.0

    def test_one_input_feature(self):
        layer = init_hidden(1, 4, "sigmoid", seed=0)
        assert (layer.input_dim, layer.hidden_count) == (1, 4)
        assert hidden_output(layer, [[0.5], [-0.5]]).shape == (2, 4)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            init_hidden(0, 5)
        with pytest.raises(ValueError):
            init_hidden(5, 0)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            init_hidden(3, 3, "relu")

    @pytest.mark.parametrize(
        "weights, biases, activation, error, message",
        [((4, 3), (1,), "sigmoid", ShapeError, r"got shapes \(4, 3\) and \(1,\)$"),
         ((4, 3), (4, 1), "sigmoid", ShapeError, r"got shapes \(4, 3\) and \(4, 1\)$"),
         ((4, 3), (3,), "sigmoid", ShapeError, r"got shapes \(4, 3\) and \(3,\)$"),
         ((12,), (12,), "sigmoid", ShapeError, r"got shapes \(12,\) and \(12,\)$"),
         ((4, 3), (4,), "tanh", ValueError, "^unknown activation 'tanh'; choose from")],
        ids=["one_bias", "column_of_biases", "short_biases", "one_dimensional_weights",
             "unknown_activation"],
    )
    def test_malformed_layer_is_refused(self, weights, biases, activation, error, message):
        with pytest.raises(error, match=message):
            HiddenLayer(np.ones(weights), np.full(biases, 0.25), activation)
        # Unpickling checks the layer as construction does.
        layer = init_hidden(3, 4, seed=0)
        object.__setattr__(layer, "biases", np.full(biases, 0.25))
        object.__setattr__(layer, "weights", np.ones(weights))
        object.__setattr__(layer, "activation", activation)
        with pytest.raises(error, match=message):
            pickle.loads(pickle.dumps(layer))

    def test_weights_are_frozen(self):
        layer = init_hidden(3, 3, seed=0)
        with pytest.raises(ValueError):
            layer.weights[0, 0] = 5.0

    def test_layers_compare_and_hash_by_identity(self):
        layer = init_hidden(3, 3, seed=0)
        same_arrays = HiddenLayer(layer.weights, layer.biases, layer.activation)
        assert layer == layer and layer != same_arrays
        assert hash(layer) != hash(same_arrays)
        assert len({layer, same_arrays, layer}) == 2


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

    def test_hardlim_is_zero_at_zero(self):
        # The test is the strict z > 0; MATLAB's hardlim gives 1 at 0.
        layer = HiddenLayer(weights=np.zeros((3, 2)), biases=np.zeros(3), activation="hardlim")
        assert np.array_equal(hidden_output(layer, np.ones((2, 2))), np.zeros((2, 3)))

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


def errstate_counter(monkeypatch):
    """The keyword arguments of every np.errstate entered from now on."""
    errstate, taken = np.errstate, []
    monkeypatch.setattr(np, "errstate", lambda **kw: taken.append(kw) or errstate(**kw))
    return taken


def layer_past_its_bound(tmp_path):
    """A layer read back by load_model, with weights of 1e200: |W|^2 is inf."""
    layer = HiddenLayer(weights=np.full((3, 2), 1e200), biases=np.zeros(3), activation="sigmoid")
    save_model(tmp_path / "past.elm", OselmModel(layer, np.eye(3), np.zeros((3, 1)),
                                                 samples_seen=5, blocks_seen=1))
    return load_model(tmp_path / "past.elm")[0].hidden


class TestProjectionBound:
    """hidden_output projects with no np.errstate and no check while the
    layer has |W|^2 + |b|^2 <= 2^200 and the input |x|^2 <= 2^800. Any
    other input is projected under np.errstate and checked, so an
    overflow raises NumericalError, not numpy's warning, which the suite
    turns into an error."""

    MESSAGE = "hidden pre-activations contains non-finite entries"

    def test_drawn_layer_is_bounded(self):
        assert init_hidden(103, 300, seed=0)._bounded
        assert init_hidden(294, 1000, seed=0)._bounded

    @pytest.mark.parametrize(
        "weights, biases, bounded",
        [([[2.0**99, 2.0**99]], [2.0**99], True),
         ([[2.0**100, 2.0**90]], [0.0], False),
         ([[1.0, 1.0]], [2.0**101], False),
         ([[1.0, 1.0]], [np.inf], False),
         ([[1.0, np.nan]], [0.0], False)],
        ids=["under", "weights_over", "biases_over", "inf_bias", "nan_weight"],
    )
    def test_layer_bound_counts_weights_and_biases(self, weights, biases, bounded):
        layer = HiddenLayer(np.array(weights), np.array(biases), "sigmoid")
        assert layer._bounded is bounded

    def test_bounded_input_takes_no_errstate(self, monkeypatch):
        layer = init_hidden(3, 4, seed=1)
        taken = errstate_counter(monkeypatch)
        x = np.full((2, 3), 2.0**398)  # |x|^2 = 6 * 2^796 <= 2^800
        out = hidden_output(layer, x)
        assert np.isfinite(out).all() and taken == []

    @pytest.mark.parametrize(
        "layer, x",
        [(init_hidden(3, 4, seed=1), np.full((1, 3), 1e300)),
         (init_hidden(3, 4, seed=1), np.full((2, 3), 2.0**399)),
         # x's first feature is 0, so the 1e200 weights add nothing and the
         # biases show in every value.
         (HiddenLayer(np.array([[1e200, 0.5], [1e200, -0.25]]), np.array([0.5, 0.125]),
                      "sigmoid"), np.array([[0.0, 0.5], [0.0, -1.0]]))],
        ids=["input_1e300", "input_over_by_a_bit", "layer_over"],
    )
    def test_past_a_bound_is_checked_and_served(self, monkeypatch, layer, x):
        taken = errstate_counter(monkeypatch)
        out = hidden_output(layer, x)
        assert np.isfinite(out).all() and len(taken) == 1
        z = x @ layer.weights.T + layer.biases
        assert np.array_equal(out, (np.tanh(z * 0.5) + 1.0) * 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, value):
        layer = init_hidden(3, 4, seed=1)
        x = np.array([[0.5, value, 0.25]])
        with pytest.raises(NumericalError) as exc:
            hidden_output(layer, x)
        assert str(exc.value) == self.MESSAGE

    def test_infinite_bias_raises(self):
        # tanh would saturate an infinite pre-activation to a finite 1.0.
        layer = HiddenLayer(np.ones((2, 2)), np.array([0.0, np.inf]), "sigmoid")
        with pytest.raises(NumericalError) as exc:
            hidden_output(layer, [[0.5, 0.5]])
        assert str(exc.value) == self.MESSAGE

    def test_loaded_layer_past_its_bound_is_checked(self, tmp_path, monkeypatch):
        layer = layer_past_its_bound(tmp_path)
        assert not layer._bounded
        taken = errstate_counter(monkeypatch)
        # A small input gives pre-activations of about 2e197, served as 1.0.
        assert np.array_equal(hidden_output(layer, [[1e-3, 1e-3]]), np.ones((1, 3)))
        assert len(taken) == 1
        with pytest.raises(NumericalError) as exc:  # |x|^2 = 2e220 is under its bound
            hidden_output(layer, [[1e110, 1e110]])
        assert str(exc.value) == self.MESSAGE

    def test_loaded_layer_past_its_bound_through_predict_and_update(self, tmp_path):
        model = OselmModel(layer_past_its_bound(tmp_path), np.eye(3), np.zeros((3, 1)),
                           samples_seen=5, blocks_seen=1)
        for call in (lambda: predict_raw(model, [[1e110, 1e110]]),
                     lambda: update(model, [[1e110, 1e110]], [[1.0]])):
            with pytest.raises(NumericalError) as exc:
                call()
            assert str(exc.value) == self.MESSAGE
        assert model._projected is None and model.samples_seen == 5


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
        message = "^initial block has 5 feature rows but 6 target rows$"
        with pytest.raises(ShapeError, match=message):
            init_phase(layer, x0[:-1], y0)

    def test_rejects_empty_block_with_ridge(self, square_init):
        # The Gram matrix would be ridge * I: solvable, but the model would
        # have seen no sample, and update and load_model refuse such a model.
        layer, x0, y0 = square_init
        with pytest.raises(ShapeError, match="initial block needs at least one sample"):
            init_phase(layer, x0[:0], y0[:0], ridge=1.0)

    def test_rejects_negative_ridge(self, square_init):
        layer, x0, y0 = square_init
        for ridge in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
                init_phase(layer, x0, y0, ridge=ridge)

    @staticmethod
    def check_gram_inv(ridge, features, hidden, rows):
        """M is exactly symmetric and equals inv(H'H + ridge I) to 1e-10."""
        rng = np.random.default_rng(21)
        layer = init_hidden(features, hidden, "sigmoid", seed=22)
        x0 = rng.uniform(-1, 1, (rows, features))
        y0 = to_bipolar(rng.integers(0, 2, (rows, 4)))
        model = init_phase(layer, x0, y0, ridge=ridge)
        assert np.array_equal(model.gram_inv, model.gram_inv.T)
        h0 = hidden_output(layer, x0)
        expected = np.linalg.inv(h0.T @ h0 + ridge * np.eye(hidden))
        error = np.max(np.abs(model.gram_inv - expected))
        assert error <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_gram_inv_exactly_symmetric(self, ridge):
        self.check_gram_inv(ridge, features=5, hidden=8, rows=20)

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_gram_inv_past_the_inverse_base_case(self, ridge):
        # H = 150 is past the triangular inverse's 64-row base case, so its
        # recursion runs.
        self.check_gram_inv(ridge, features=50, hidden=150, rows=400)


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

    def test_block_past_the_inverse_base_case_matches_batch(self):
        # B = 130 rows take the triangular inverse's recursion on the
        # Woodbury factor.
        layer, x, y = stream_fixture(seed=41, n=630, d=60, hidden=400)
        model = init_phase(layer, x[:500], y[:500])
        update(model, x[500:], y[500:])
        beta_batch = batch_beta(hidden_output(layer, x), y)
        assert np.max(np.abs(model.beta - beta_batch)) <= 1e-8

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
        # Sizes at which OpenBLAS's general gemm for G'G is not exactly
        # symmetric (300 columns, 12 to 100 rows), so a fold or a read of
        # gram_inv that loses the syrk path shows here. The 40 single rows
        # fold once and leave 7 rows pending; the 17-row blocks fold twice,
        # and the first of those folds widens the buffer to 68 rows.
        layer, x, y = stream_fixture(seed=36, n=560, hidden=300)
        model = init_phase(layer, x[:400], y[:400])
        for i in range(400, 440):
            update(model, x[i : i + 1], y[i : i + 1])
            assert np.array_equal(model.gram_inv, model.gram_inv.T)
        for s in range(440, 560, 17):
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
        # One pending row g folds as M0 - g g' through syrk; each entry must
        # still be the one rounded product g_i g_j that np.outer gives.
        layer, x, y = stream_fixture(seed=45)
        model = init_phase(layer, x[:30], y[:30])
        m = model.gram_inv.copy()
        h = hidden_output(layer, x[30:31])
        hm = (h @ m)[0]
        g = hm / np.sqrt(1.0 + hm @ h[0])
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
        assert model._projected is None  # the raising update dropped the record

    def test_breakdown_detected(self):
        model = self.corrupted_model()
        x = np.array([[0.5, 0.5]])
        predict_raw(model, x)  # the update below reuses this projection
        with pytest.raises(NumericalError, match="positive-definite"):
            update(model, x, np.array([[1.0]]))
        self.assert_unchanged(model)

    def test_block_breakdown_detected(self):
        model = self.corrupted_model()
        x = np.array([[0.5, 0.5], [-0.5, 1.0], [1.0, 0.0]])
        predict_raw(model, x[:1])
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

    def test_rejects_row_mismatch(self, square_init):
        layer, x0, y0 = square_init
        model = init_phase(layer, x0, y0)
        with pytest.raises(ShapeError, match="^2 feature rows but 1 target rows$"):
            update(model, x0[:2], y0[:1])


def stepwise(m, beta, h, y):
    """M and beta after each row of h in turn, by the textbook rank-one
    update with M itself downdated at every row."""
    for hv, yv in zip(h, y):
        mh = m @ hv
        denom = 1.0 + hv @ mh
        beta = beta + np.outer(mh / denom, yv - hv @ beta)
        m = m - np.outer(mh, mh) / denom
    return m, beta


class TestDeferredDowndates:
    """update keeps M as M0 - G'G and folds the pending rows G into M0
    when an update's rows do not fit in G's buffer, would fill more than
    half of it, or could make the fold overflow."""

    @pytest.mark.parametrize(
        "hidden, rows, capacity",
        [(300, 1, 32), (300, 30, 75), (300, 37, 75), (300, 38, 0), (1000, 50, 200),
         (1000, 125, 250), (1000, 126, 0), (1000, 1000, 0), (20, 1, 5), (7, 1, 0)],
    )
    def test_buffer_capacity(self, hidden, rows, capacity):
        assert _capacity(rows, hidden) == capacity

    def test_buffer_is_at_most_a_quarter_of_the_hidden_layer(self):
        # Each pending row costs every later step 2 B H flops; a block of
        # more than H / 8 rows gets no buffer at all.
        for hidden in range(1, 1200, 7):
            for rows in range(1, hidden + 2):
                capacity = _capacity(rows, hidden)
                assert capacity <= hidden // 4
                assert capacity == 0 or 2 * rows <= capacity
                assert (capacity == 0) == (2 * rows > hidden // 4)

    @pytest.mark.parametrize("rows", [_PENDING_ROWS - 1, _PENDING_ROWS, _PENDING_ROWS + 1])
    def test_matches_step_by_step_around_a_fold(self, rows):
        layer, x, y = stream_fixture(seed=50, hidden=140)  # a buffer of _PENDING_ROWS rows
        model = init_phase(layer, x[:30], y[:30], ridge=1.0)
        m_ref, beta_ref = stepwise(
            model.gram_inv, model.beta, hidden_output(layer, x[30 : 30 + rows]), y[30 : 30 + rows]
        )
        for i in range(30, 30 + rows):
            update(model, x[i : i + 1], y[i : i + 1])
        # A full buffer holds its rows; one row more folds them all in.
        assert len(model._downdates) == _PENDING_ROWS
        assert model._pending == (rows if rows <= _PENDING_ROWS else 0)
        m = model.gram_inv
        assert np.max(np.abs(m - m_ref)) <= 1e-12 * np.max(np.abs(m_ref))
        assert np.array_equal(m, m.T)
        assert np.max(np.abs(model.beta - beta_ref)) <= 1e-10

    def test_mixed_block_sizes(self):
        # With H = 160 the buffer starts at 32 rows. The 20-row block would
        # fill more than half of it: it folds and widens the buffer to 40
        # rows. The 30-row block is wider than H / 8 and folds with no
        # buffer left; the 5-row block then folds and gets 32 rows again.
        sizes = [1, 1, 3, 20, 1, 17, 2, 30, 5, 1]
        after = [(32, 1), (32, 2), (32, 5), (40, 0), (40, 1), (40, 18), (40, 20), (0, 0),
                 (32, 0), (32, 1)]
        layer, x, y = stream_fixture(seed=51, n=30 + sum(sizes), hidden=160)
        model = init_phase(layer, x[:30], y[:30], ridge=1.0)
        m_ref, beta_ref = stepwise(model.gram_inv, model.beta, hidden_output(layer, x[30:]), y[30:])
        start = 30
        for b, state in zip(sizes, after):
            update(model, x[start : start + b], y[start : start + b])
            start += b
            assert (len(model._downdates), model._pending) == state
            assert np.array_equal(model.gram_inv, model.gram_inv.T)
        assert (model.samples_seen, model.blocks_seen) == (len(x), 1 + len(sizes))
        assert np.max(np.abs(model.gram_inv - m_ref)) <= 1e-12 * np.max(np.abs(m_ref))
        assert np.max(np.abs(model.beta - beta_ref)) <= 1e-10

    def test_save_with_rows_pending_writes_the_folded_model(self, tmp_path):
        layer, x, y = stream_fixture(seed=52)
        saved, folded, untouched = (init_phase(layer, x[:30], y[:30]) for _ in range(3))
        for model in (saved, folded, untouched):
            for i in range(30, 34):
                update(model, x[i : i + 1], y[i : i + 1])
        assert saved._pending == 4
        folded.gram_inv = folded.gram_inv  # fold the pending rows into M0
        save_model(tmp_path / "saved.elm", saved)
        save_model(tmp_path / "folded.elm", folded)
        assert (tmp_path / "saved.elm").read_bytes() == (tmp_path / "folded.elm").read_bytes()
        loaded, _ = load_model(tmp_path / "saved.elm")
        assert np.array_equal(loaded.gram_inv, loaded.gram_inv.T)
        # The loaded model goes on exactly as the folded one, and saving
        # left the saved model's own state, pending rows and all, as it was.
        for i in range(40, 80):
            for model in (saved, folded, untouched, loaded):
                update(model, x[i : i + 1], y[i : i + 1])
        for a, b in ((loaded, folded), (saved, untouched)):
            assert a.beta.tobytes() == b.beta.tobytes()
            assert a.gram_inv.tobytes() == b.gram_inv.tobytes()

    def test_overflowing_row_raises_at_once_and_the_model_stays_usable(
        self, tmp_path, monkeypatch
    ):
        # hardlim with unit weights gives h = 0 for x = -1, a zero downdate
        # row, and h = (1, ..., 1) for x = 1. Against the corrupted,
        # indefinite M0 below, h = (1, ..., 1) has a positive denominator
        # and a finite row g, but g_1^2 overflows. That row fits in the
        # buffer, yet the update that brings it folds at once and raises.
        # A load under 2^400 cannot make such a row, and past it every row
        # folds at once, so _LOAD_LIMIT is raised to half the largest float
        # to keep the zero row pending. On this path only np.vdot, which
        # warns of nothing, and the fold, under np.errstate, overflow.
        monkeypatch.setattr("elmstream.model._LOAD_LIMIT", float(np.finfo(float).max) / 2)
        layer = HiddenLayer(weights=np.ones((8, 1)), biases=np.zeros(8), activation="hardlim")
        m0 = np.diag([-8e307, 8.5e307, 0, 0, 0, 0, 0, 0])
        model = OselmModel(hidden=layer, gram_inv=m0, beta=np.zeros((8, 1)),
                           samples_seen=4, blocks_seen=1)
        update(model, [[-1.0]], [[1.0]])
        assert (len(model._downdates), model._pending) == (2, 1)
        with pytest.raises(NumericalError, match="inverse Gram matrix contains non-finite"):
            update(model, [[1.0]], [[1.0]])
        assert model._pending == 1
        assert np.array_equal(model.gram_inv, m0)
        assert np.array_equal(model.beta, np.zeros((8, 1)))
        assert (model.samples_seen, model.blocks_seen) == (5, 2)
        # The pending row still folds: the model saves, loads and learns.
        save_model(tmp_path / "model.elm", model)
        loaded, _ = load_model(tmp_path / "model.elm")
        assert np.array_equal(loaded.gram_inv, m0)
        update(model, [[-1.0]], [[1.0]])
        assert (model._pending, model.samples_seen) == (2, 6)

    def test_pending_rows_spend_the_fold_headroom(self, monkeypatch):
        # Headroom for either of the first two rows but not for both: the
        # first is kept, the second folds though the buffer has room.
        layer, x, y = stream_fixture(seed=54)
        model = init_phase(layer, x[:30], y[:30])
        norms = []
        m = model.gram_inv
        for i in (30, 31):
            h = hidden_output(layer, x[i : i + 1])[0]
            norms.append((h @ m @ m @ h) / (1.0 + h @ m @ h))  # |g|^2
            m, _ = stepwise(m, model.beta, h[None], y[i : i + 1])
        assert min(norms) > 0.1 * max(norms)
        monkeypatch.setattr("elmstream.model._LOAD_LIMIT", model._load + 1.01 * max(norms))
        update(model, x[30:31], y[30:31])
        assert model._pending == 1
        update(model, x[31:32], y[31:32])
        assert model._pending == 0
        assert np.max(np.abs(model.gram_inv - m)) <= 1e-12 * np.max(np.abs(m))

    def test_a_row_that_fills_the_headroom_exactly_is_kept(self, monkeypatch):
        # x = 1 gives h = e_1: against 3 I, the row's squared norm is
        # (3 / sqrt(1 + 3))^2 = 2.25 exactly, and the load 3 + 2.25 = 5.25.
        # Under a limit one step below that, the same row folds.
        for limit, state in ((5.25, (1, 5.25)), (np.nextafter(5.25, 0.0), (0, 3.0))):
            model = hardlim_model([[-1.0], [1.0]] + [[-1.0]] * 6, 3.0 * np.eye(8),
                                  np.zeros((8, 1)))
            monkeypatch.setattr("elmstream.model._LOAD_LIMIT", limit)
            update(model, [[1.0]], [[1.0]])
            assert (model._pending, model._load) == state

    def test_no_headroom_folds_every_row(self, monkeypatch):
        # A limit of max|M0| leaves no room for a pending row, nor does a
        # load past _LOAD_LIMIT, and the downdates leave that entry as it
        # is: every update folds. (At max|M0| = _LOAD_LIMIT itself a row's
        # norm would round away.)
        for peak, limit in ((2.0**401, None), (4.0, 4.0)):
            model = hardlim_model([[-1.0]] + [[1.0]] * 7, np.diag([peak] + [1.0] * 7),
                                  np.zeros((8, 1)))
            if limit is not None:
                monkeypatch.setattr("elmstream.model._LOAD_LIMIT", limit)
            for _ in range(3):
                update(model, [[1.0]], [[1.0]])  # h = (0, 1, ..., 1)
                assert (len(model._downdates), model._pending, model._load) == (2, 0, peak)

    def test_load_is_max_m0_plus_the_pending_norms(self):
        # The overflow bound reads the load: a bound on every entry of M.
        layer, x, y = stream_fixture(seed=57, hidden=20)  # a buffer of 5 rows
        model = init_phase(layer, x[:30], y[:30])
        for i in range(30, 50):
            update(model, x[i : i + 1], y[i : i + 1])
            load = float(np.abs(model._base).max())
            for g in model._downdates[: model._pending]:
                load += float(np.vdot(g, g))
            assert model._load == load >= np.abs(model.gram_inv).max()

    def test_copies_are_updated_apart(self):
        layer, x, y = stream_fixture(seed=53)
        model = init_phase(layer, x[:30], y[:30])
        update(model, x[30:31], y[30:31])
        twin = copy.copy(model)
        expected = [copy.deepcopy(model) for _ in range(2)]
        for m, i in zip((model, twin, *expected), (31, 32, 31, 32)):
            update(m, x[i : i + 1], y[i : i + 1])
        assert model._pending == twin._pending == 2  # the same buffer rows
        for m, reference in zip((model, twin), expected):
            assert m.gram_inv.tobytes() == reference.gram_inv.tobytes()
            assert m.beta.tobytes() == reference.beta.tobytes()


def reference_single_row_step(state, h, y):
    """(M0, pending rows, beta) after one row, by update's single-row
    formulas with fresh arrays at every step; rows fold when the buffer
    of _capacity(1, H) rows is full."""
    base, rows, beta = state
    hm = h @ base
    if rows:
        g = np.array(rows)
        hm -= (h @ g.T) @ g
    residual = y - h @ beta
    root = np.sqrt(1.0 + float(hm[0] @ h[0]))
    v = hm / root
    step = residual / root
    beta = beta + np.dot(v.T, step)
    rows = rows + [v[0]]
    if len(rows) <= _capacity(1, len(base)):
        return base, rows, beta
    g = np.array(rows)
    return base - g.T @ g, [], beta


class TestSingleRowStep:
    """The single-row step is bit for bit the formulas it trims: each
    arrival's beta and folded M equal a reference step's, through folds."""

    @staticmethod
    def state_bytes(model):
        return model.beta.tobytes(), model.gram_inv.tobytes()

    @staticmethod
    def reference_bytes(state):
        base, rows, beta = state
        if rows:
            g = np.array(rows)
            base = base - g.T @ g
        return beta.tobytes(), base.tobytes()

    def test_stream_matches_the_reference_step_bit_for_bit(self):
        # H = 20 gives a buffer of 5 rows: 200 rows fold 33 times.
        layer, x, y = stream_fixture(seed=70, n=230, hidden=20)
        model = init_phase(layer, x[:30], y[:30])
        state = (model.gram_inv.copy(), [], model.beta.copy())
        folds = 0
        for i in range(30, 230):
            xi, yi = x[i : i + 1], y[i : i + 1]
            if i % 2:
                predict_raw(model, xi)  # the update reuses this projection
            update(model, xi, yi)
            state = reference_single_row_step(state, hidden_output(layer, xi), yi)
            folds += not state[1]
            assert model._pending == len(state[1])
            assert self.state_bytes(model) == self.reference_bytes(state)
        assert folds == 33

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["features", "targets"])
    def test_non_finite_row_leaves_the_model_unchanged(self, value, where):
        layer, x, y = stream_fixture(seed=71, hidden=20)
        model = init_phase(layer, x[:30], y[:30])
        for i in range(30, 33):
            update(model, x[i : i + 1], y[i : i + 1])
        before = self.state_bytes(model), model._pending, model._load
        xi, yi = x[33:34].copy(), y[33:34].copy()
        (xi if where == "features" else yi)[0, 1] = value
        error = NumericalError if where == "features" else ValueError
        with pytest.raises(error):
            update(model, xi, yi)
        assert (self.state_bytes(model), model._pending, model._load) == before
        assert (model.samples_seen, model.blocks_seen) == (33, 4)


class TestProjectionReuse:
    """predict_raw on an arrival of up to 64 rows keeps its hidden output for
    the update that learns the same rows next, so test-then-train projects
    each arrival once."""

    def test_predict_then_update_matches_update_alone_bit_for_bit(self, projections):
        # H = 140 gives a buffer of 32 rows: the 45 rows fold once.
        layer, x, y = stream_fixture(seed=60, hidden=140)
        served, reference = (init_phase(layer, x[:30], y[:30], ridge=1.0) for _ in range(2))
        projections.clear()
        for i in range(30, 75):
            xi, yi = x[i : i + 1], y[i : i + 1]
            predicted = predict_raw(served, xi)
            raw = update(served, xi, yi)
            assert served._projected is None
            assert raw.tobytes() == predicted.tobytes()
            assert raw.tobytes() == update(reference, xi, yi).tobytes()
        assert served.beta.tobytes() == reference.beta.tobytes()
        assert served.gram_inv.tobytes() == reference.gram_inv.tobytes()
        assert served._pending == reference._pending == 45 - 33
        # One projection per row for the served model, one for the reference.
        assert projections == [1] * 90

    def test_row_changed_in_place_is_projected_again(self, projections):
        layer, x, y = stream_fixture(seed=61)
        served, reference = (init_phase(layer, x[:30], y[:30]) for _ in range(2))
        row = x[30:31].copy()
        predict_raw(served, row)
        row[0, 3] += 0.25
        projections.clear()
        update(served, row, y[30:31])
        assert projections == [1]
        update(reference, row, y[30:31])
        assert served.beta.tobytes() == reference.beta.tobytes()

    def test_swapped_hidden_layer_is_projected_again(self, projections):
        layer, x, y = stream_fixture(seed=62)
        served, reference = (init_phase(layer, x[:30], y[:30]) for _ in range(2))
        predict_raw(served, x[30:31])
        other = init_hidden(10, 20, "sigmoid", seed=63)
        served.hidden = reference.hidden = other
        projections.clear()
        update(served, x[30:31], y[30:31])
        assert projections == [1]
        update(reference, x[30:31], y[30:31])
        assert served.beta.tobytes() == reference.beta.tobytes()

    def test_another_row_is_projected_and_drops_the_record(self, projections):
        layer, x, y = stream_fixture(seed=64)
        model = init_phase(layer, x[:30], y[:30])
        predict_raw(model, x[30:31])
        projections.clear()
        update(model, x[31:32], y[31:32])
        update(model, x[30:31], y[30:31])  # its record went with the update before
        assert projections == [1, 1]

    def test_same_bytes_in_another_shape_are_not_reused(self):
        # Each presented shape holds the recorded rows' bytes exactly.
        layer, x, y = stream_fixture(seed=68)
        model = init_phase(layer, x[:30], y[:30])
        for rows, shape in ((1, (2, 5)), (2, (4, 5)), (2, (1, 20))):
            predict_raw(model, x[30 : 30 + rows])
            with pytest.raises(ShapeError, match=f"has {shape[1]} features"):
                update(model, x[30 : 30 + rows].reshape(shape), y[30 : 30 + shape[0]])

    @pytest.mark.parametrize("size, count", [(2, 20), (50, 2), (64, 2)])
    def test_block_is_projected_once(self, size, count, projections):
        # At H = 140, blocks of 2 fill the 32-row buffer and fold at the
        # 17th block; blocks of 50 or 64 get no buffer and fold every time.
        layer, x, y = stream_fixture(seed=65, hidden=140)
        served, reference = (init_phase(layer, x[:30], y[:30], ridge=1.0) for _ in range(2))
        projections.clear()
        for s in range(30, 30 + size * count, size):
            xb, yb = x[s : s + size], y[s : s + size]
            predicted = predict_raw(served, xb)
            raw = update(served, xb, yb)
            assert served._projected is None
            assert raw.tobytes() == predicted.tobytes()
            assert raw.tobytes() == update(reference, xb, yb).tobytes()
        assert served.beta.tobytes() == reference.beta.tobytes()
        assert served.gram_inv.tobytes() == reference.gram_inv.tobytes()
        assert served._pending == reference._pending < size * count
        # One projection per block for the served model, one for the reference.
        assert projections == [size] * (2 * count)

    def test_block_over_the_bound_is_projected_twice(self, projections):
        layer, x, y = stream_fixture(seed=69)
        model = init_phase(layer, x[:30], y[:30])
        projections.clear()
        predict_raw(model, x[30:95])
        assert model._projected is None
        update(model, x[30:95], y[30:95])
        assert projections == [65, 65]

    def test_block_changed_in_place_is_projected_again(self, projections):
        layer, x, y = stream_fixture(seed=72)
        served, reference = (init_phase(layer, x[:30], y[:30]) for _ in range(2))
        block = x[30:40].copy()
        predict_raw(served, block)
        block[7, 2] += 0.25
        projections.clear()
        update(served, block, y[30:40])
        assert projections == [10]
        update(reference, block, y[30:40])
        assert served.beta.tobytes() == reference.beta.tobytes()

    def test_prediction_on_no_rows_or_rejected_drops_the_record(self):
        layer, x, y = stream_fixture(seed=73)
        model = init_phase(layer, x[:30], y[:30])
        predict_raw(model, x[30:31])
        assert predict_raw(model, x[30:30]).shape == (0, 3)
        assert model._projected is None
        predict_raw(model, x[30:31])
        with pytest.raises(ShapeError):
            predict_raw(model, x[30:31, :5])
        assert model._projected is None

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda m, x, y: predict_raw(m, x[0]), "input must be 2-D, got ndim=1"),
            (lambda m, x, y: update(m, x[0], y[:1]), "features must be 2-D, got ndim=1"),
            (lambda m, x, y: update(m, x[:1], y[0]), "targets must be 2-D, got ndim=1"),
        ],
        ids=["predict_raw_input", "update_features", "update_targets"],
    )
    def test_one_dimensional_row_is_rejected_and_drops_the_record(
        self, tmp_path, call, message
    ):
        layer, x, y = stream_fixture(seed=74)
        model = init_phase(layer, x[:30], y[:30])
        save_model(tmp_path / "before.elm", model)
        predict_raw(model, x[30:31])
        with pytest.raises(ShapeError, match=f"^{message}$"):
            call(model, x[30:31], y[30:31])
        assert model._projected is None
        save_model(tmp_path / "after.elm", model)
        assert (tmp_path / "before.elm").read_bytes() == (tmp_path / "after.elm").read_bytes()

    def test_rejected_update_drops_the_record(self, projections):
        layer, x, y = stream_fixture(seed=66)
        model = init_phase(layer, x[:30], y[:30])
        predict_raw(model, x[30:31])
        with pytest.raises(ShapeError):
            update(model, x[30:31], y[30:31, :2])
        assert model._projected is None
        projections.clear()
        update(model, x[30:31], y[30:31])
        assert projections == [1]

    @pytest.mark.parametrize("rows", [1, 50])
    def test_raw_outputs_are_reused(self, rows):
        layer, x, y = stream_fixture(seed=75, hidden=140)
        served, reference = (init_phase(layer, x[:30], y[:30], ridge=1.0) for _ in range(2))
        for s in range(30, 30 + 3 * rows, rows):
            xb, yb = x[s : s + rows], y[s : s + rows]
            predict_raw(served, xb)
            recorded = served._projected[4]
            raw = update(served, xb, yb)
            assert raw is recorded  # no second h beta
            assert raw.tobytes() == update(reference, xb, yb).tobytes()
            assert served.beta.tobytes() == reference.beta.tobytes()
            assert served.gram_inv.tobytes() == reference.gram_inv.tobytes()

    def test_beta_assigned_between_predict_and_update_drops_the_record(self, projections):
        layer, x, y = stream_fixture(seed=76)
        served, reference = (init_phase(layer, x[:30], y[:30]) for _ in range(2))
        predicted = predict_raw(served, x[30:31])
        served.beta = reference.beta = served.beta * 2.0
        assert served._projected is None
        projections.clear()
        raw = update(served, x[30:31], y[30:31])
        assert projections == [1]
        assert raw.tobytes() == update(reference, x[30:31], y[30:31]).tobytes()
        assert not np.array_equal(raw, predicted)
        assert served.beta.tobytes() == reference.beta.tobytes()

    def test_written_prediction_does_not_reach_the_update(self):
        layer, x, y = stream_fixture(seed=77)
        served, reference = (init_phase(layer, x[:30], y[:30]) for _ in range(2))
        predicted = predict_raw(served, x[30:31])
        expected = predicted.copy()
        predicted -= 0.5
        raw = update(served, x[30:31], y[30:31])
        assert raw.tobytes() == expected.tobytes()
        update(reference, x[30:31], y[30:31])
        assert served.beta.tobytes() == reference.beta.tobytes()

    def test_record_is_not_saved(self, tmp_path):
        layer, x, y = stream_fixture(seed=67)
        model = init_phase(layer, x[:30], y[:30])
        save_model(tmp_path / "before.elm", model)
        predict_raw(model, x[30:31])
        save_model(tmp_path / "after.elm", model)
        assert (tmp_path / "before.elm").read_bytes() == (tmp_path / "after.elm").read_bytes()
        assert load_model(tmp_path / "after.elm")[0]._projected is None

    @staticmethod
    def initial_block(seed):
        """A model after init_phase on a transform of its initial rows, those
        rows, a second transform of them (equal bytes in another array, as
        the README's calibration presents them), and the stream."""
        layer, x, y = stream_fixture(seed=seed)
        norm = Normalizer(scale=np.linspace(0.5, 1.5, 10), offset=np.full(10, 0.1))
        x_init = norm.transform(x[:30])
        model = init_phase(layer, x_init, y[:30])
        return model, x_init, norm.transform(x[:30]), x, y

    def test_initial_block_is_projected_once_for_its_calibration(self, projections):
        model, _, x0, _, _ = self.initial_block(seed=80)
        assert projections == [30]
        fresh = hidden_output(model.hidden, x0) @ model.beta
        first = predict_raw(model, x0)
        first -= 1.0  # the caller's copy: the record keeps its own
        second = predict_raw(model, x0)
        assert projections == [30]
        assert second.tobytes() == fresh.tobytes()
        assert model._projected[3].tobytes() == hidden_output(model.hidden, x0).tobytes()

    @pytest.mark.parametrize("change", ["rows", "beta", "hidden", "other_rows"])
    def test_initial_block_is_projected_again_after_a_change(self, change, projections):
        model, x_init, x0, _, _ = self.initial_block(seed=81)
        if change == "rows":
            x0 = x_init
            x0[4, 2] += 0.25
        elif change == "beta":
            model.beta = model.beta  # equal values in a new object
        elif change == "hidden":
            model.hidden = HiddenLayer(model.hidden.weights, model.hidden.biases, "sigmoid")
        else:
            x0 = x0[:29]
        projections.clear()
        raw = predict_raw(model, x0)
        assert projections == [len(x0)]
        assert raw.tobytes() == (hidden_output(model.hidden, x0) @ model.beta).tobytes()

    def test_update_on_the_initial_rows_reuses_h0(self, projections):
        model, x0, _, _, y = self.initial_block(seed=82)
        reference = copy.copy(model)  # no record: it projects the rows
        projections.clear()
        raw = update(model, x0, y[:30])
        assert projections == []
        assert model._projected is None
        assert raw.tobytes() == update(reference, x0, y[:30]).tobytes()
        assert model.beta.tobytes() == reference.beta.tobytes()
        assert model.gram_inv.tobytes() == reference.gram_inv.tobytes()

    @pytest.mark.parametrize("spare, projected", [(0, [30]), (-1, [30, 30])])
    def test_initial_block_over_the_bound_is_projected_twice(
        self, monkeypatch, projections, spare, projected
    ):
        # 30 x 20 hidden outputs and 30 x 10 rows: 7200 bytes.
        monkeypatch.setattr("elmstream.model._INIT_RECORD_BYTES", 7200 + spare)
        model, _, x0, _, _ = self.initial_block(seed=83)
        assert (model._projected is None) == (spare < 0)
        predict_raw(model, x0)
        assert projections == projected

    def test_initial_block_past_the_weight_bound_is_not_recorded(self, monkeypatch):
        monkeypatch.setattr("elmstream.model._BETA_LIMIT", 0.0)
        model = self.initial_block(seed=84)[0]
        assert model._projected is None

    @pytest.mark.parametrize("twin", [copy.copy], ids=["copy"])
    def test_copied_model_has_no_record(self, twin):
        # A shallow copy would share the record's arrays: see the next test.
        model, _, x0, _, _ = self.initial_block(seed=86)
        copied = twin(model)
        assert model._projected is not None
        assert copied._projected is None
        assert predict_raw(copied, x0).tobytes() == predict_raw(model, x0).tobytes()

    @pytest.mark.parametrize(
        "twin", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["deepcopy", "pickle"],
    )
    def test_deep_copied_model_carries_its_own_record(self, twin, projections):
        model, _, x0, _, _ = self.initial_block(seed=86)
        copied = twin(model)
        assert copied._projected[0] is copied.hidden is not model.hidden
        assert not any(np.shares_memory(a, b) for a, b in
                       zip(copied._projected[3:], model._projected[3:]))
        projections.clear()
        assert predict_raw(copied, x0).tobytes() == predict_raw(model, x0).tobytes()
        assert projections == []

    def test_writing_into_what_update_returned_leaves_a_copy_as_it_was(self):
        # update hands out the record's own raw outputs; a copy made after
        # predict_raw must not see a write into them.
        layer, x, y = stream_fixture(seed=87)
        model = init_phase(layer, x[:30], y[:30])
        xi = x[30:31]
        predict_raw(model, xi)
        twin = copy.copy(model)
        raw = update(model, xi, y[30:31])
        raw += 100.0
        fresh = hidden_output(layer, xi) @ twin.beta
        assert predict_raw(twin, xi).tobytes() == fresh.tobytes()

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, x0, x, y: update(m, x[30:31], y[30:31]),
            lambda m, x0, x, y: predict_raw(m, x[30:31]),
            lambda m, x0, x, y: predict_raw(m, x[30:90]),
            lambda m, x0, x, y: predict_raw(m, x0[:, :5]),
        ],
        ids=["update", "predict_raw_row", "predict_raw_block", "predict_raw_rejected"],
    )
    def test_any_other_call_drops_the_initial_record(self, call, projections):
        model, _, x0, x, y = self.initial_block(seed=85)
        with contextlib.suppress(ShapeError):
            call(model, x0, x, y)
        assert model._projected is None or model._projected[2] != x0.tobytes()
        projections.clear()
        predict_raw(model, x0)
        assert projections == [30]


class TestReadOnlyState:
    """The layer's arrays, the model's M and beta and the normalizer's
    arrays are read-only, so a write into them in place raises instead of
    passing by the checks they passed when they were set, or leaving the
    projection record, which is keyed by the layer's identity and dropped
    when beta is assigned, stale."""

    @staticmethod
    def sources(tmp_path):
        # H = 20 gives a buffer of 5 rows: 2 rows stay pending, 10 fold.
        layer, x, y = stream_fixture(seed=78)
        model = init_phase(layer, x[:30], y[:30])
        assigned = copy.copy(model)
        assigned.beta = np.ones_like(model.beta)
        assigned.gram_inv = np.eye(layer.hidden_count)
        updated = copy.copy(model)
        update(updated, x[30:32], y[30:32])
        assert updated._pending == 2
        folded = copy.copy(model)
        update(folded, x[30:40], y[30:40])
        assert folded._pending == 0
        save_model(tmp_path / "model.elm", model)
        return {
            "init_phase": model,
            "assigned": assigned,
            "updated": updated,
            "folded": folded,
            "loaded": load_model(tmp_path / "model.elm")[0],
            "deepcopy": copy.deepcopy(model),
            "pickle": pickle.loads(pickle.dumps(model)),
        }

    def test_beta_and_layer_arrays_reject_writes(self, tmp_path):
        for name, model in self.sources(tmp_path).items():
            for array in (model.gram_inv, model.beta, model.hidden.weights, model.hidden.biases):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
            assert model.hidden._bounded, name

    def test_constructed_layer_is_read_only(self):
        weights, biases = np.ones((2, 3)), np.zeros(2)
        HiddenLayer(weights, biases, "sigmoid")
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            biases[0] = 2.0

    def test_constructed_model_and_normalizer_are_read_only(self, tmp_path):
        # M is stored as given, made read-only; beta is copied. A copied,
        # unpickled or loaded normalizer is constructed too.
        gram_inv, scale, offset = np.eye(2), np.ones(3), np.zeros(3)
        model = OselmModel(init_hidden(3, 2, seed=0), gram_inv, np.zeros((2, 1)),
                           samples_seen=2, blocks_seen=1)
        norm = Normalizer(scale, offset)
        assert model.gram_inv is gram_inv
        save_model(tmp_path / "model.elm", model, norm)
        arrays = [gram_inv, scale, offset]
        for source in (copy.deepcopy(norm), pickle.loads(pickle.dumps(norm)),
                       load_model(tmp_path / "model.elm")[1]):
            arrays += [source.scale, source.offset]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0

    def test_assigned_beta_is_a_copy(self):
        layer, x, y = stream_fixture(seed=79)
        model = init_phase(layer, x[:30], y[:30])
        beta = np.ones_like(model.beta)
        model.beta = beta
        beta[0, 0] = 5.0  # the caller's array stays writable and theirs
        assert np.array_equal(model.beta, np.ones_like(beta))


class TestStateShapes:
    """The model checks M's and beta's shapes against its layer when they
    are assigned and when it is unpickled, so a wrong shape never reaches
    ``update`` or ``save_model`` as an IndexError or a broadcast."""

    @pytest.mark.parametrize(
        "name, shape, message",
        [("beta", (4,), r"^beta must have shape \(4, labels\) with labels >= 1 for 4 neurons, "
                        r"got \(4,\)$"),
         ("beta", (4, 0), r"got \(4, 0\)$"),
         ("beta", (3, 2), r"got \(3, 2\)$"),
         ("beta", (4, 2, 1), r"got \(4, 2, 1\)$"),
         ("gram_inv", (3, 3), r"^gram_inv must have shape \(4, 4\) for 4 neurons, got \(3, 3\)$"),
         ("gram_inv", (4, 3), r"got \(4, 3\)$"),
         ("gram_inv", (16,), r"got \(16,\)$")],
        ids=["vector_beta", "no_labels", "short_beta", "three_dimensional_beta",
             "small_gram_inv", "oblong_gram_inv", "flat_gram_inv"],
    )
    def test_wrong_shape_is_refused(self, name, shape, message):
        layer = init_hidden(3, 4, seed=0)
        arrays = {"gram_inv": np.eye(4), "beta": np.zeros((4, 2)), name: np.zeros(shape)}
        with pytest.raises(ShapeError, match=message):
            OselmModel(layer, **arrays)
        # Assignment and unpickling check as construction does.
        model = OselmModel(layer, np.eye(4), np.zeros((4, 2)), samples_seen=4, blocks_seen=1)
        with pytest.raises(ShapeError, match=message):
            setattr(model, name, np.zeros(shape))
        model.__dict__[{"gram_inv": "_base", "beta": "_beta"}[name]] = np.zeros(shape)
        with pytest.raises(ShapeError, match=message):
            pickle.loads(pickle.dumps(model))

    def test_refused_assignment_leaves_the_model_as_it_was(self):
        layer, x, y = stream_fixture(seed=80)
        model = init_phase(layer, x[:30], y[:30])
        gram_inv, beta = model.gram_inv, model.beta
        with pytest.raises(ShapeError):
            model.gram_inv = gram_inv[:-1, :-1]
        with pytest.raises(ShapeError):
            model.beta = beta.ravel()
        assert model.gram_inv is gram_inv and model.beta is beta
        update(model, x[30:32], y[30:32])

    def test_gram_inv_that_is_not_exactly_symmetric_is_refused(self):
        # update reads h M0 as (M0 H')', which holds only for a symmetric M0.
        layer = init_hidden(3, 8, seed=0)
        asymmetric = np.eye(8)
        asymmetric[0, 1] += 1e-3
        message = "^gram_inv is not exactly symmetric$"
        with pytest.raises(ValueError, match=message):
            OselmModel(layer, asymmetric, np.zeros((8, 2)), samples_seen=40, blocks_seen=1)
        model = OselmModel(layer, np.eye(8), np.zeros((8, 2)), samples_seen=40, blocks_seen=1)
        with pytest.raises(ValueError, match=message):
            model.gram_inv = asymmetric
        assert np.array_equal(model.gram_inv, np.eye(8))
        model.__dict__["_base"] = asymmetric
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(model))


class TestIllConditionedStream:
    """A stream whose hidden output H has cond(H'H) of about 4e11 (sine
    activation, 400 neurons, 5 features). There beta itself is
    ill-determined: the stream's beta is 1.2e-4 from lstsq's, with
    entries up to 1e3. The fit is not, so the stream is judged in output
    space against np.linalg.lstsq, which solves the least-squares problem
    on H itself.

    Measured (init block of 800 rows, 40 single rows, then blocks of 50):
    relative RSS gap 1.2e-14, max raw-output gap 4.0e-7 with outputs up to
    1.5. The bounds leave a margin of 8e3 and of 25 over those values. A
    rank-one weight step scaled by 1/sqrt(S) instead of 1/S gives an RSS
    gap of 1.2e-2, and a block step that skips one L^-1 one of 1.7.
    """

    RSS_GAP_BOUND = 1e-10
    RAW_GAP_BOUND = 1e-5

    def test_output_space_matches_lstsq(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, (8000, 5))
        y = to_bipolar(rng.integers(0, 2, (8000, 3)))
        layer = init_hidden(5, 400, "sine", seed=4)
        model = init_phase(layer, x[:800], y[:800])
        for i in range(800, 840):
            update(model, x[i : i + 1], y[i : i + 1])
        for s in range(840, 8000, 50):
            update(model, x[s : s + 50], y[s : s + 50])
        h = hidden_output(layer, x)
        assert np.linalg.cond(h.T @ h) > 1e11
        reference, *_ = np.linalg.lstsq(h, y, rcond=None)
        out, out_ref = h @ model.beta, h @ reference
        rss, rss_ref = np.sum((y - out) ** 2), np.sum((y - out_ref) ** 2)
        assert abs(rss - rss_ref) / rss_ref <= self.RSS_GAP_BOUND
        assert np.max(np.abs(out - out_ref)) <= self.RAW_GAP_BOUND
        assert np.array_equal(model.gram_inv, model.gram_inv.T)


class TestLongStream:
    """20,000 single rows with ridge 0 (sine activation, 40 neurons, 3
    features, cond(H'H) about 4e8): the rounding of every rank-one
    downdate accumulates in M over the whole stream, and the result is
    judged in output space against np.linalg.lstsq.

    Measured: relative RSS gap 1.2e-16, and max raw-output gap 6.2e-10
    when every row downdated M itself and 1.2e-10 with deferred
    downdates, with outputs up to 0.35.
    """

    RSS_GAP_BOUND = 1e-12
    RAW_GAP_BOUND = 1e-7

    def test_single_row_stream_matches_lstsq(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (20000, 3))
        y = to_bipolar(rng.integers(0, 2, (20000, 3)))
        layer = init_hidden(3, 40, "sine", seed=6)
        model = init_phase(layer, x[:160], y[:160])
        for i in range(160, 20000):
            update(model, x[i : i + 1], y[i : i + 1])
        h = hidden_output(layer, x)
        assert np.linalg.cond(h.T @ h) > 1e8
        reference, *_ = np.linalg.lstsq(h, y, rcond=None)
        out, out_ref = h @ model.beta, h @ reference
        rss, rss_ref = np.sum((y - out) ** 2), np.sum((y - out_ref) ** 2)
        assert abs(rss - rss_ref) / rss_ref <= self.RSS_GAP_BOUND
        assert np.max(np.abs(out - out_ref)) <= self.RAW_GAP_BOUND
        assert np.array_equal(model.gram_inv, model.gram_inv.T)


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



def hardlim_model(weights, gram_inv, beta):
    """A model over a hardlim layer with the given weights and no biases."""
    layer = HiddenLayer(weights=np.array(weights, dtype=float), biases=np.zeros(len(weights)),
                        activation="hardlim")
    return OselmModel(hidden=layer, gram_inv=gram_inv, beta=beta, samples_seen=5, blocks_seen=1)


class TestOverflowIsChecked:
    """A product with the state that overflows is reported by a check, as
    NumericalError, not by numpy's warning, which the suite turns into an
    error. Under the bound the products run with no np.errstate."""

    @pytest.mark.parametrize(
        "x, message",
        [([[1.0]], "inverse Gram matrix contains non-finite entries"),
         ([[1.0], [1.0]], "coefficient matrix contains non-finite entries")],
        ids=["row", "block"],
    )
    def test_gram_product_that_overflows(self, x, message):
        # x = 1 gives h = (1, 1, 0), and h M0 adds two entries of 1e308.
        m0 = np.array([[1.0, 0.0, 1e308], [0.0, 1.0, 1e308], [1e308, 1e308, 1.0]])
        model = hardlim_model([[1.0], [1.0], [-1.0]], m0.copy(), np.zeros((3, 1)))
        with pytest.raises(NumericalError) as exc:
            update(model, x, np.ones((len(x), 1)))
        assert str(exc.value) == message
        assert model.gram_inv.tobytes() == m0.tobytes()
        assert model.beta.tobytes() == np.zeros((3, 1)).tobytes()
        assert (model.samples_seen, model.blocks_seen, model._pending) == (5, 1, 0)

    def test_weight_product_that_overflows(self):
        # x = 1 gives h = (1, 1, 1), and h beta adds three entries of 1e308.
        beta = np.full((3, 2), 1e308)
        model = hardlim_model([[1.0]] * 3, np.eye(3), beta.copy())
        with pytest.raises(NumericalError) as exc:
            predict_raw(model, [[1.0]])
        assert str(exc.value) == "raw outputs contains non-finite entries"
        assert model._projected is None  # a call that raises keeps no record
        with pytest.raises(NumericalError) as exc:
            update(model, [[1.0]], [[1.0, -1.0]])
        assert str(exc.value) == "output weights contains non-finite entries"
        assert model.beta.tobytes() == beta.tobytes()
        assert model.gram_inv.tobytes() == np.eye(3).tobytes()
        # x = -1 gives h = 0: the same weights are served without a fault.
        assert np.array_equal(predict_raw(model, [[-1.0]]), np.zeros((1, 2)))

    def test_single_row_denominator_that_overflows(self):
        # np.vdot forms h M0 h' = 3e308 with no warning; the update would
        # otherwise divide by inf and learn nothing.
        m0 = np.diag([1e308] * 3)
        model = hardlim_model([[1.0]] * 3, m0.copy(), np.zeros((3, 1)))
        with pytest.raises(NumericalError) as exc:
            update(model, [[1.0]], [[1.0]])
        assert str(exc.value) == "update denominator overflowed: inverse Gram matrix too large"
        assert model.gram_inv.tobytes() == m0.tobytes()
        assert (model.samples_seen, model._pending) == (5, 0)

    def test_zero_denominator(self):
        model = hardlim_model([[1.0], [-1.0]], np.diag([-1.0, 1.0]), np.zeros((2, 1)))
        with pytest.raises(NumericalError) as exc:
            update(model, [[1.0]], [[1.0]])
        assert str(exc.value) == ("update denominator 0.000e+00 <= 0: inverse Gram matrix "
                                  "lost positive-definiteness")

    def test_common_path_takes_no_errstate(self, monkeypatch):
        # H = 140 gives a buffer of 32 rows: the 10 rows and the block of 4
        # are appended without a fold, and the layer and the inputs are
        # within hidden_output's bounds.
        layer, x, y = stream_fixture(seed=56, hidden=140)
        model = init_phase(layer, x[:30], y[:30], ridge=1.0)
        taken = errstate_counter(monkeypatch)
        for i in range(30, 40):
            predict_raw(model, x[i : i + 1])
            update(model, x[i : i + 1], y[i : i + 1])  # reuses the projection
        update(model, x[40:44], y[40:44])
        assert model._pending == 14
        assert taken == []


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


def _set(model, **attributes):
    """Assign ``attributes`` to ``model``, and return no normalizer."""
    for name, value in attributes.items():
        setattr(model, name, value)


def _nudged_past_the_setter(model, at):
    """Move M0's entry ``at`` one ulp up, past the setter's symmetry check,
    and return no normalizer."""
    assert model._pending == 0  # M0 is M
    model.__dict__["_base"] = _nudged(model.gram_inv, at)


def _nudged(a, at, value=None):
    """A copy of ``a`` whose entry ``at`` is ``value``, or one ulp above it."""
    a = a.copy()
    a[at] = np.nextafter(a[at], np.inf) if value is None else value
    return a


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

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda m: _set(m, threshold=np.inf), r":6: non-finite threshold 'inf'$"),
            (lambda m: _set(m, threshold=-np.inf), r":6: non-finite threshold '-inf'$"),
            (lambda m: _set(m, threshold=np.nan), r":6: non-finite threshold 'nan'$"),
            (lambda m: Normalizer(np.ones(4), np.zeros(4)), r"size 4 into shape \(5,\)$"),
            (lambda m: Normalizer(np.ones(6), np.zeros(6)), r"size 6 into shape \(5,\)$"),
            (lambda m: Normalizer(np.r_[1.0, np.nan, 1.0, 1.0, 1.0], np.zeros(5)),
             ": non-finite array value$"),
            (lambda m: Normalizer(np.ones(5), np.r_[0.0, 0.0, np.inf, 0.0, 0.0]),
             ": non-finite array value$"),
            (lambda m: _set(m, samples_seen=0, blocks_seen=0),
             ":7: samples_seen must be an integer >= 1, got '0'$"),
            (lambda m: _set(m, samples_seen=0, blocks_seen=1),
             ":7: samples_seen must be an integer >= 1, got '0'$"),
            (lambda m: _set(m, samples_seen=1, blocks_seen=0),
             ":8: blocks_seen must be an integer >= 1, got '0'$"),
            (lambda m: _nudged_past_the_setter(m, (0, 1)), ": gram_inv is not exactly symmetric$"),
            (lambda m: _set(m, beta=_nudged(m.beta, (3, 1), np.nan)), ": non-finite array value$"),
            (lambda m: _set(m, hidden=HiddenLayer(_nudged(m.hidden.weights, (2, 4), np.inf),
                                                  m.hidden.biases, m.hidden.activation)),
             ": non-finite array value$"),
            (lambda m: _set(m, samples_seen=5.5),
             ":7: samples_seen must be an integer >= 1, got '5.5'$"),
            (lambda m: _set(m, samples_seen=True),
             ":7: samples_seen must be an integer >= 1, got 'True'$"),
            (lambda m: _set(m, _beta=np.vstack([m.beta, m.beta[:1]])),  # past the setter
             r"size 18 into shape \(8, ?2\)$"),
            (lambda m: _set(m, hidden=init_hidden(5, 9, seed=0)),
             r"size 64 into shape \(9, ?9\)$"),
            (lambda m: object.__setattr__(m.hidden, "activation", "tanh"),
             ":2: unknown activation 'tanh'$"),
            (lambda m: _set(m, samples_seen="5\n"),
             ": expected 'blocks_seen <value>' at line 8$"),
            (lambda m: _set(m, samples_seen="5\nblocks_seen 1\nnormalizer none\nend"),
             ": missing end marker$"),
        ],
        ids=["inf_threshold", "minus_inf_threshold", "nan_threshold",
             "short_normalizer", "long_normalizer", "nan_scale", "inf_offset",
             "no_samples_no_blocks", "no_samples", "no_blocks",
             "asymmetric_gram_inv", "nan_beta", "inf_weight",
             "fractional_samples_seen", "boolean_samples_seen", "beta_rows",
             "layer_rows", "unknown_activation", "newline_in_samples_seen",
             "header_lines_in_samples_seen"],
    )
    def test_what_load_model_would_reject_is_not_saved(self, tmp_path, fault, message):
        # The model has 8 neurons, 5 features and 2 labels; a fault returns
        # the normalizer to save, or changes the model and returns None.
        model = self.make_model()
        with pytest.raises(ValueError, match=message):
            save_model(tmp_path / "model.elm", model, fault(model))
        assert list(tmp_path.iterdir()) == []

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
        # Arrays of 8 x 5 + 8 + 8 x 8 + 8 x 2 float64 entries follow the header.
        p.write_bytes(data[:-8])
        with pytest.raises(DataError) as exc:
            load_model(p)
        assert str(exc.value) == f"{p}: 1016 bytes of arrays, the header needs 1024"

    def test_non_integer_count_text(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(p, self.make_model())
        header, end, payload = p.read_bytes().partition(b"\nend\n")
        lines = header.decode().split("\n")
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith("samples_seen "))
        lines[lineno - 1] = "samples_seen abc"
        p.write_bytes("\n".join(lines).encode() + end + payload)
        with pytest.raises(DataError) as exc:
            load_model(p)
        assert str(exc.value) == (
            f"{p}:{lineno}: samples_seen must be an integer >= 1, got 'abc'"
        )

    def test_header_value_spelled_otherwise_names_its_line(self, tmp_path):
        p = tmp_path / "m.txt"
        save_model(p, self.make_model())
        p.write_bytes(p.read_bytes().replace(b"\nthreshold ", b"\nthreshold +", 1))
        with pytest.raises(DataError) as exc:
            load_model(p)
        threshold = repr(float(self.make_model().threshold))
        assert str(exc.value) == (
            f"{p}:6: threshold must be written {threshold!r}, got '+{threshold}'"
        )

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
            _replace_float(_GRAM_INV + 1, lambda x: np.nextafter(x, np.inf)),  # [0, 1]
            # Spellings save_model never writes, though int() or float() reads them.
            _replace_field("samples_seen", "1_0"),
            _replace_field("samples_seen", "+10"),
            _replace_field("samples_seen", " 10"),
            _replace_field("blocks_seen", "0001"),
            _replace_field("hidden_count", "08"),
            _replace_field("threshold", "0.00"),
            _replace_field("threshold", "+0.0"),
            _replace_field("threshold", "0.0_0"),
            _replace_field("threshold", "1e-1"),
        ],
        ids=["broadcast_bias", "nan_threshold", "normalizer_width", "nan_gram_inv",
             "negative_samples_seen", "zero_blocks_seen", "non_integer_input_dim",
             "negative_weights_rows", "asymmetric_gram_inv", "one_ulp_asymmetric_gram_inv",
             "underscored_samples_seen", "signed_samples_seen", "spaced_samples_seen",
             "zero_padded_blocks_seen", "zero_padded_hidden_count", "padded_threshold",
             "signed_threshold", "underscored_threshold", "exponent_threshold"],
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

"""Property-based tests of the file codecs (the model file and the sparse
dataset format) and of the model's test-then-train path.

A model ``save_model`` writes must load back bit for bit, and one it
refuses, with a fault such as a NaN, an asymmetric ``gram_inv`` or a
count that is not a positive integer, must leave no file. A corrupted
file must either raise DataError or load a model whose arrays match the
header and are finite: never another exception, never a silently
inconsistent model.
Likewise a sparse file written by the test-side writer must load back
exactly, and a corrupted one must raise DataError or load a dataset of the
declared widths with finite features and 0/1 labels. A dense CSV text,
well-formed or not, must give ``load_csv`` and its per-line reference
reader the same arrays or the same DataError, and ``stream_csv`` the
blocks ``stream_blocks`` cuts from ``load_csv`` or the same DataError.
And no interleaving of ``predict_raw`` with ``update``, in-place edits of
the arrival, its bytes in another shape and model copies changes a bit
of what ``update`` learns.
Examples are derandomized, so every run checks the same cases.
"""

import copy
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import save_sparse  # noqa: E402
from elmstream.data import (  # noqa: E402
    DataError,
    LabeledDataset,
    Normalizer,
    StreamPlan,
    load_csv,
    load_sparse,
    stream_blocks,
    stream_csv,
    stream_sparse,
)
from elmstream.labels import to_bipolar  # noqa: E402
from elmstream.model import (  # noqa: E402
    _RECORD_ROWS,
    ACTIVATIONS,
    HiddenLayer,
    OselmModel,
    init_hidden,
    init_phase,
    load_model,
    predict_raw,
    save_model,
    update,
)
from elmstream.numerics import ShapeError  # noqa: E402

FUZZ = settings(derandomize=True, deadline=None)

# Every strategy is built once, here: a strategy built inside a draw is
# rebuilt and revalidated on every example.
finite = st.floats(allow_nan=False, allow_infinity=False)
coin = st.booleans()
activations = st.sampled_from(sorted(ACTIVATIONS))
one_to_3 = st.integers(1, 3)
one_to_4 = st.integers(1, 4)
one_to_5 = st.integers(1, 5)
sample_counts = st.integers(1, 10**12)
block_counts = st.integers(1, 10**6)


def array(draw, shape):
    """A float64 array of ``shape`` whose entries are drawn from ``finite``."""
    return np.array([draw(finite) for _ in range(int(np.prod(shape)))]).reshape(shape)


@st.composite
def models(draw):
    dim = draw(one_to_3)
    hidden = draw(one_to_4)
    labels = draw(one_to_3)
    gram_inv = array(draw, (hidden, hidden))
    lower = np.tril_indices(hidden, -1)
    gram_inv[lower] = gram_inv.T[lower]
    layer = HiddenLayer(
        weights=array(draw, (hidden, dim)),
        biases=array(draw, (hidden,)),
        activation=draw(activations),
    )
    model = OselmModel(
        hidden=layer,
        gram_inv=gram_inv,
        beta=array(draw, (hidden, labels)),
        threshold=draw(finite),
        samples_seen=draw(sample_counts),
        blocks_seen=draw(block_counts),
    )
    normalizer = None
    if draw(coin):
        normalizer = Normalizer(scale=array(draw, (dim,)), offset=array(draw, (dim,)))
    return model, normalizer


non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
bad_counts = st.sampled_from([0, -1, 5.5, True])
one_off = st.sampled_from([-1, 1])
faults = st.sampled_from(["weights", "gram_inv", "beta", "asymmetry", "diagonal", "beta_rows",
                          "layer_rows", "threshold", "samples_seen", "blocks_seen", "activation",
                          "normalizer_width", "normalizer_entry"])


def with_entry(draw, a, value=None):
    """A copy of ``a`` whose drawn entry is ``value``, or one ulp above what it was."""
    a = np.array(a)
    at = draw(st.integers(0, a.size - 1))
    with np.errstate(over="ignore"):  # one ulp above the largest float is inf
        a.flat[at] = np.nextafter(a.flat[at], np.inf) if value is None else value
    return a


@st.composite
def faulty_models(draw):
    """A drawn model and normalizer, and a copy of the two with one drawn
    fault. Some faults leave a model that may be saved, such as a diagonal
    entry of gram_inv moved one ulp, which mostly keeps it finite and
    symmetric."""
    model, normalizer = draw(models())
    bad, bad_normalizer = copy.copy(model), normalizer
    layer, dim = model.hidden, model.hidden.input_dim
    fault = draw(faults)
    if fault == "weights":
        weights = with_entry(draw, layer.weights, draw(non_finite))
        bad.hidden = HiddenLayer(weights, layer.biases, layer.activation)
    elif fault == "beta":
        bad.beta = with_entry(draw, model.beta, draw(non_finite))
    elif fault in ("gram_inv", "asymmetry"):
        # Past the setter, which refuses a gram_inv that is not exactly symmetric.
        value = draw(non_finite) if fault == "gram_inv" else None
        bad.__dict__["_base"] = with_entry(draw, model.gram_inv, value)
    elif fault == "diagonal":
        gram_inv = np.array(model.gram_inv)
        np.fill_diagonal(gram_inv, with_entry(draw, np.diag(model.gram_inv)))
        bad.gram_inv = gram_inv
    elif fault == "beta_rows":
        bad._beta = np.vstack([model.beta, model.beta[:1]])  # past the setter's check
    elif fault == "layer_rows":
        bad.hidden = HiddenLayer(np.vstack([layer.weights, layer.weights[:1]]),
                                 np.r_[layer.biases, layer.biases[:1]], layer.activation)
    elif fault == "threshold":
        bad.threshold = draw(non_finite)
    elif fault in ("samples_seen", "blocks_seen"):
        setattr(bad, fault, draw(bad_counts))
    elif fault == "activation":
        bad.hidden = HiddenLayer(layer.weights, layer.biases, layer.activation)
        object.__setattr__(bad.hidden, "activation", "tanh")  # past the constructor's check
    elif fault == "normalizer_width":
        dim += draw(one_off)
        bad_normalizer = Normalizer(np.ones(dim), np.zeros(dim))
    elif fault == "normalizer_entry":
        bad_normalizer = Normalizer(with_entry(draw, np.ones(dim), draw(non_finite)), np.zeros(dim))
    return (model, normalizer), (bad, bad_normalizer)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_loads_back(path, model, normalizer):
    loaded, norm_back = load_model(path)
    assert same_bits(loaded.hidden.weights, model.hidden.weights)
    assert same_bits(loaded.hidden.biases, model.hidden.biases)
    assert same_bits(loaded.gram_inv, model.gram_inv)
    assert same_bits(loaded.beta, model.beta)
    assert loaded.hidden.activation == model.hidden.activation
    assert np.float64(loaded.threshold).tobytes() == np.float64(model.threshold).tobytes()
    assert (loaded.label_count, loaded.samples_seen, loaded.blocks_seen) == (
        model.label_count,
        model.samples_seen,
        model.blocks_seen,
    )
    if normalizer is None:
        assert norm_back is None
    else:
        assert same_bits(norm_back.scale, normalizer.scale)
        assert same_bits(norm_back.offset, normalizer.offset)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "model.txt"


@settings(FUZZ, max_examples=200)
@given(drawn=faulty_models())
def test_save_load_round_trip_is_bit_exact(path, drawn):
    # Every drawn model saves and loads back bit for bit. Its faulty copy
    # is either refused with no file written or loads back bit for bit too.
    (model, normalizer), (bad, bad_normalizer) = drawn
    path.unlink(missing_ok=True)
    save_model(path, model, normalizer)
    assert_loads_back(path, model, normalizer)
    path.unlink()
    try:
        save_model(path, bad, bad_normalizer)
    except ValueError:
        assert not path.exists()
        return
    assert_loads_back(path, bad, bad_normalizer)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Bytes of a small, valid model file with a normalizer."""
    rng = np.random.default_rng(7)
    gram_inv = rng.normal(size=(3, 3))
    layer = HiddenLayer(
        weights=rng.uniform(-1, 1, (3, 2)), biases=rng.uniform(0, 1, 3), activation="sigmoid"
    )
    model = OselmModel(
        hidden=layer,
        gram_inv=gram_inv @ gram_inv.T,
        beta=rng.normal(size=(3, 2)),
        threshold=0.25,
        samples_seen=40,
        blocks_seen=4,
    )
    path = tmp_path_factory.mktemp("codec") / "reference.txt"
    save_model(path, model, Normalizer(scale=rng.normal(size=2), offset=rng.normal(size=2)))
    load_model(path)
    return path.read_bytes()


corruption_kinds = st.sampled_from(["flip", "replace", "truncate", "delete", "duplicate"])
offsets = st.integers(0, 2**16 - 1)  # taken modulo the file's length
bit_numbers = st.integers(0, 7)
byte_values = st.integers(0, 255)
spans = st.integers(1, 16)


def corrupt(data, b):
    """``b`` after one drawn corruption."""
    kind = data.draw(corruption_kinds)
    at = data.draw(offsets) % len(b)
    if kind == "flip":
        return b[:at] + bytes([b[at] ^ (1 << data.draw(bit_numbers))]) + b[at + 1 :]
    if kind == "replace":
        return b[:at] + bytes([data.draw(byte_values)]) + b[at + 1 :]
    if kind == "truncate":
        return b[:at]
    span = data.draw(spans)
    if kind == "delete":
        return b[:at] + b[at + span :]
    return b[: at + span] + b[at : at + span] + b[at + span :]


def corrupted(data, raw):
    """``raw`` after one to three drawn corruptions."""
    for _ in range(data.draw(one_to_3)):
        if raw:
            raw = corrupt(data, raw)
    return raw


@settings(FUZZ, max_examples=400)
@given(data=st.data())
def test_corrupted_file_raises_data_error_or_loads_consistently(reference, path, data):
    path.write_bytes(corrupted(data, reference))
    try:
        model, normalizer = load_model(path)
    except DataError:
        return
    assert model.hidden.activation in ACTIVATIONS
    hidden, dim = model.hidden.weights.shape
    assert model.hidden.biases.shape == (hidden,)
    assert model.gram_inv.shape == (hidden, hidden)
    assert model.beta.shape == (hidden, model.label_count)
    arrays_loaded = [model.hidden.weights, model.hidden.biases, model.gram_inv, model.beta]
    if normalizer is not None:
        assert normalizer.scale.shape == normalizer.offset.shape == (dim,)
        arrays_loaded += [normalizer.scale, normalizer.offset]
    assert all(np.isfinite(a).all() for a in arrays_loaded)
    assert np.isfinite(model.threshold)
    assert model.samples_seen >= 1 and model.blocks_seen >= 1


@st.composite
def sparse_datasets(draw):
    rows = draw(one_to_5)
    features = array(draw, (rows, draw(one_to_4)))
    size = rows * draw(one_to_3)
    bits = [draw(coin) for _ in range(size)]
    labels = np.array(bits, dtype=np.int8).reshape(rows, -1)
    # A row with no label and no nonzero feature has no sparse encoding.
    labels[~labels.any(axis=1) & ~features.any(axis=1), 0] = 1
    return LabeledDataset(features=features, labels=labels)


@pytest.fixture(scope="module")
def sparse_path(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "data.sparse"


@settings(FUZZ, max_examples=100)
@given(ds=sparse_datasets())
def test_sparse_round_trip_is_exact(sparse_path, ds):
    save_sparse(sparse_path, ds)
    loaded = load_sparse(sparse_path, ds.n_features, ds.n_labels)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.labels.dtype == np.int8
    # Streamed in blocks of 1 to 3 rows, each read as a chunk of its own,
    # the file gives the same arrays, bit for bit.
    n = ds.n_samples
    for rows in (1, 2, 3):
        plan = StreamPlan(1 if 1 + rows <= n else n, rows)
        blocks = list(stream_sparse(sparse_path, ds.n_features, ds.n_labels, plan))
        for whole, parts in [(loaded.features, [b.features for b in blocks]),
                             (loaded.labels, [b.labels for b in blocks])]:
            joined = np.concatenate(parts)
            assert joined.dtype == whole.dtype and joined.shape == whole.shape
            assert joined.tobytes() == whole.tobytes()


SPARSE_WIDTHS = (5, 3)  # features, labels of the reference sparse file


@pytest.fixture(scope="module")
def sparse_reference(tmp_path_factory):
    """Bytes of a small, valid sparse file, one of its rows without labels."""
    rng = np.random.default_rng(8)
    features = rng.normal(size=(6, SPARSE_WIDTHS[0]))
    features[rng.uniform(size=features.shape) < 0.4] = 0.0
    labels = (rng.uniform(size=(6, SPARSE_WIDTHS[1])) < 0.5).astype(np.int8)
    labels[0] = 0
    features[0, 0] = 1.5
    path = tmp_path_factory.mktemp("codec") / "reference.sparse"
    save_sparse(path, LabeledDataset(features=features, labels=labels))
    load_sparse(path, *SPARSE_WIDTHS)
    return path.read_bytes()


@settings(FUZZ, max_examples=400)
@given(data=st.data())
def test_corrupted_sparse_file_raises_data_error_or_loads_consistently(
    sparse_reference, sparse_path, data
):
    sparse_path.write_bytes(corrupted(data, sparse_reference))
    try:
        ds = load_sparse(sparse_path, *SPARSE_WIDTHS)
    except DataError:
        return
    assert ds.n_samples >= 1
    assert (ds.n_features, ds.n_labels) == SPARSE_WIDTHS
    assert np.isfinite(ds.features).all()
    assert np.isin(ds.labels, (0, 1)).all()


# Dense CSV: load_csv parses in bulk and falls back to the per-line reader,
# data._csv_by_line. Whatever the text, the two must agree: the same arrays
# bit for bit, or the same DataError message. So must stream_csv and the
# blocks stream_blocks cuts from load_csv's dataset.

FLOAT_STYLES = ["{!r}"] * 3 + [
    "{:.6g}",
    "{:e}",
    " {!r} ",
    "\t{:.6g}\x0b",
    "\x1c{:e}\x85",
    "　{!r}\xa0",
]
# Stand-ins for one field: faults, and spellings only float() reads.
ODD_FIELDS = ["nan", "inf", "-inf", "1e999", "1_0", "١", "", "x"]
ODD_FIELDS += ["0.0", " 1", "1\t", "2", "-0"]
# Line ends, some with blank or whitespace-only lines after them.
LINE_ENDS = ["\n"] * 6 + ["\r\n", "\r", "\n\n", "\r\n \t\r\n", "\n　\n"]

float_style = st.sampled_from(FLOAT_STYLES)
line_end = st.sampled_from(LINE_ENDS)
row_faults = st.lists(
    st.tuples(
        st.sampled_from(["feature", "feature", "label", "short", "long", "trailing_comma"]),
        st.integers(0, 59),
        st.sampled_from(ODD_FIELDS),
    ),
    max_size=2,
)
row_counts = st.integers(0, 5)
plans = st.builds(StreamPlan, one_to_4, one_to_3)
header_width_changes = st.sampled_from([0, 0, 0, 0, -1, 1])


@st.composite
def csv_texts(draw):
    """(text, label_count, has_header): well-formed CSV text in varied
    layouts and float spellings, with up to two faults or odd fields."""
    m = draw(one_to_3)
    d = draw(one_to_4)
    n = draw(row_counts)
    rows = []
    for _ in range(n):
        style = draw(float_style)
        bits = ["1" if draw(coin) else "0" for _ in range(m)]
        rows.append([style.format(draw(finite)) for _ in range(d)] + bits)
    for kind, at, odd in draw(row_faults) if rows else ():
        row = rows[at % n]
        if kind == "feature":
            row[at % d] = odd
        elif kind == "label":
            row[-1 - at % m] = odd
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.insert(0, "0.5")
        else:
            row.append("")
    lines = [",".join(row) for row in rows]
    has_header = draw(coin)
    if has_header:
        width = d + m + draw(header_width_changes)
        lines.insert(0, ",".join(f"c{j}" for j in range(width)))
    text = "".join(line + draw(line_end) for line in lines)
    if draw(coin):
        text = text.rstrip("\r\n")
    return text, m, has_header


def csv_outcome(read):
    """The arrays of the datasets ``read()`` gives, bit for bit, or the
    text of the DataError it raises."""
    try:
        datasets = list(read())
    except DataError as exc:
        return "DataError", str(exc)
    arrays = []
    for ds in datasets:
        assert ds.features.dtype == np.float64 and ds.features.flags.c_contiguous
        assert ds.labels.dtype == np.int8 and ds.labels.flags.c_contiguous
        arrays.append((ds.features.shape, ds.features.tobytes(),
                       ds.labels.shape, ds.labels.tobytes()))
    return arrays


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "data.csv"


@settings(FUZZ, max_examples=200)
@given(drawn=csv_texts(), chunk_rows=one_to_3, plan=plans)
def test_csv_load_matches_the_per_line_reader(csv_path, drawn, chunk_rows, plan):
    # load_csv reads chunks of 1 to 3 rows here and stream_csv blocks of 1
    # to 4, so the texts' up to 5 rows cross chunk boundaries at every
    # kind of line end and fault.
    text, m, has_header = drawn
    csv_path.write_bytes(text.encode("utf-8"))
    with mock.patch("elmstream.data._CHUNK_ROWS", chunk_rows):
        loaded = csv_outcome(lambda: [load_csv(csv_path, m, has_header)])
    # The reference reads every chunk line by line: the bulk parse declines.
    with mock.patch("elmstream.data._csv_in_bulk", lambda *args: None):
        assert csv_outcome(lambda: [load_csv(csv_path, m, has_header)]) == loaded
    assert csv_outcome(lambda: stream_csv(csv_path, m, plan, has_header)) == csv_outcome(
        lambda: stream_blocks(load_csv(csv_path, m, has_header), plan)
    )


# Steps of a served stream: predict the current arrival on model pair i,
# change it in place, take 1-3 stream rows or one more than a record holds
# as the current arrival, present its bytes in another shape, learn the
# current arrival or stream row k on pair i, or copy pair i.
serving_steps = st.lists(
    st.tuples(
        st.sampled_from(("predict", "edit", "rows", "reshape", "learn", "learn_other", "copy")),
        st.integers(0, 63),
    ),
    max_size=40,
)


def learned(model, x, y):
    """update's raw output bytes, or the text of the ShapeError it raised."""
    try:
        return update(model, x, y).tobytes()
    except ShapeError as exc:
        return str(exc)


@settings(FUZZ, max_examples=200)
@given(steps=serving_steps)
def test_predict_raw_never_changes_what_update_learns(steps):
    # H = 12 gives a buffer of 3 pending rows, so folds come often.
    rng = np.random.default_rng(70)
    x = rng.uniform(-1, 1, (200, 4))
    y = to_bipolar(rng.integers(0, 2, (200, 2)))
    model = init_phase(init_hidden(4, 12, "sigmoid", seed=71), x[:30], y[:30], ridge=1.0)
    # Each pair is a served model and a reference that never sees predict_raw.
    pairs = [(model, copy.copy(model))]
    arrival, label = x[30:31].copy(), y[30:31]
    for step, k in steps:
        served, reference = pairs[k % len(pairs)]
        i = 30 + k % 10
        if step == "predict":
            try:
                predict_raw(served, arrival)
            except ShapeError:  # a reshaped arrival
                pass
        elif step == "edit":
            arrival[k % len(arrival), k % arrival.shape[1]] += 0.5
        elif step == "rows":
            rows = (1, 2, 3, _RECORD_ROWS + 1)[k % 4]
            arrival, label = x[i : i + rows].copy(), y[i : i + rows]
        elif step == "reshape":
            # Two features a row or one row, with as many label rows.
            arrival = arrival.reshape((-1, 2) if k % 2 else (1, -1))
            label = y[i : i + len(arrival)]
        elif step == "learn":
            assert learned(served, arrival, label) == learned(reference, arrival, label)
        elif step == "learn_other":
            update(served, x[i : i + 1], y[i : i + 1])
            update(reference, x[i : i + 1], y[i : i + 1])
        else:
            pairs.append((copy.copy(served), copy.copy(reference)))
    for served, reference in pairs:
        assert served.beta.tobytes() == reference.beta.tobytes()
        assert served.gram_inv.tobytes() == reference.gram_inv.tobytes()

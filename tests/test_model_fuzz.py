"""Property-based tests of the file codecs: the model file and the sparse
dataset format.

A saved model must load back bit for bit, and a corrupted file must either
raise DataError or load a model whose arrays match the header and are
finite: never another exception, never a silently inconsistent model.
Likewise a sparse file written by the test-side writer must load back
exactly, and a corrupted one must raise DataError or load a dataset of the
declared widths with finite features and 0/1 labels. A dense CSV text,
well-formed or not, must give ``load_csv`` and its per-line reference
reader the same arrays or the same DataError.
Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import save_sparse  # noqa: E402
from elmstream.data import (  # noqa: E402
    DataError,
    LabeledDataset,
    Normalizer,
    _csv_by_line,
    load_csv,
    load_sparse,
)
from elmstream.model import (  # noqa: E402
    ACTIVATIONS,
    HiddenLayer,
    OselmModel,
    load_model,
    save_model,
)

FUZZ = settings(derandomize=True, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


def arrays(shape):
    size = int(np.prod(shape))
    return st.lists(finite, min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=float).reshape(shape)
    )


@st.composite
def models(draw):
    dim = draw(st.integers(1, 3))
    hidden = draw(st.integers(1, 4))
    labels = draw(st.integers(1, 3))
    gram_inv = draw(arrays((hidden, hidden)))
    lower = np.tril_indices(hidden, -1)
    gram_inv[lower] = gram_inv.T[lower]
    layer = HiddenLayer(
        weights=draw(arrays((hidden, dim))),
        biases=draw(arrays((hidden,))),
        activation=draw(st.sampled_from(sorted(ACTIVATIONS))),
    )
    model = OselmModel(
        hidden=layer,
        gram_inv=gram_inv,
        beta=draw(arrays((hidden, labels))),
        threshold=draw(finite),
        samples_seen=draw(st.integers(1, 10**12)),
        blocks_seen=draw(st.integers(1, 10**6)),
    )
    normalizer = draw(
        st.none() | st.builds(Normalizer, scale=arrays((dim,)), offset=arrays((dim,)))
    )
    return model, normalizer


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "model.txt"


@settings(FUZZ, max_examples=100)
@given(drawn=models())
def test_save_load_round_trip_is_bit_exact(path, drawn):
    model, normalizer = drawn
    save_model(path, model, normalizer)
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


@st.composite
def corruption(draw, size):
    kind = draw(st.sampled_from(["flip", "replace", "truncate", "delete", "duplicate"]))
    at = draw(st.integers(0, size - 1))
    if kind == "flip":
        bit = draw(st.integers(0, 7))
        return lambda b: b[:at] + bytes([b[at] ^ (1 << bit)]) + b[at + 1 :]
    if kind == "replace":
        value = draw(st.integers(0, 255))
        return lambda b: b[:at] + bytes([value]) + b[at + 1 :]
    if kind == "truncate":
        return lambda b: b[:at]
    span = draw(st.integers(1, 16))
    if kind == "delete":
        return lambda b: b[:at] + b[at + span :]
    return lambda b: b[: at + span] + b[at : at + span] + b[at + span :]


def corrupted(data, raw):
    """``raw`` after one to three drawn corruptions."""
    for _ in range(data.draw(st.integers(1, 3))):
        if raw:
            raw = data.draw(corruption(len(raw)))(raw)
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
    rows = draw(st.integers(1, 5))
    features = draw(arrays((rows, draw(st.integers(1, 4)))))
    size = rows * draw(st.integers(1, 3))
    bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
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
# bit for bit, or the same DataError message.

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


@st.composite
def csv_texts(draw):
    """(text, label_count, has_header): well-formed CSV text in varied
    layouts and float spellings, with up to two faults or odd fields."""
    m = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 5))
    rows = []
    for _ in range(n):
        style = draw(float_style)
        bits = format(draw(st.integers(0, 2**m - 1)), f"0{m}b")
        rows.append([style.format(draw(finite)) for _ in range(d)] + list(bits))
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
    has_header = draw(st.booleans())
    if has_header:
        width = d + m + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        lines.insert(0, ",".join(f"c{j}" for j in range(width)))
    text = "".join(line + draw(line_end) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, m, has_header


def csv_outcome(loader, path, m, has_header):
    try:
        ds = loader(path, m, has_header)
    except DataError as exc:
        return "DataError", str(exc)
    assert ds.features.dtype == np.float64 and ds.features.flags.c_contiguous
    assert ds.labels.dtype == np.int8 and ds.labels.flags.c_contiguous
    return (ds.features.shape, ds.features.tobytes(), ds.labels.shape, ds.labels.tobytes())


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "data.csv"


@settings(FUZZ, max_examples=200)
@given(drawn=csv_texts())
def test_csv_load_matches_the_per_line_reader(csv_path, drawn):
    text, m, has_header = drawn
    csv_path.write_bytes(text.encode("utf-8"))
    assert csv_outcome(load_csv, csv_path, m, has_header) == csv_outcome(
        _csv_by_line, csv_path, m, has_header
    )

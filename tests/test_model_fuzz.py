"""Property-based tests of the model file codec.

A saved model must load back bit for bit, and a corrupted file must either
raise DataError or load a model whose arrays match the header and are
finite: never another exception, never a silently inconsistent model.
Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from elmstream.data import DataError, Normalizer  # noqa: E402
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


@settings(FUZZ, max_examples=400)
@given(data=st.data())
def test_corrupted_file_raises_data_error_or_loads_consistently(reference, path, data):
    corrupted = reference
    for _ in range(data.draw(st.integers(1, 3))):
        if corrupted:
            corrupted = data.draw(corruption(len(corrupted)))(corrupted)
    path.write_bytes(corrupted)
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

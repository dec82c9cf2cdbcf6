"""The online sequential ELM learner.

A single hidden layer of random, frozen projections feeds a linear output
map. Training happens in two phases: a batch least-squares solve on an
initial block, then rank-one (per sample) or Woodbury (per block)
recursive least-squares updates as further data streams in. The model
keeps the running inverse Gram matrix so the maintained output weights
always equal the batch solution on everything seen so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, Normalizer, _finite_float
from .numerics import (
    NumericalError,
    SYMMETRY_RTOL,
    ShapeError,
    _asymmetric,
    as_matrix,
    cholesky_spd,
    ensure_finite,
)

__all__ = [
    "ACTIVATIONS",
    "HiddenLayer",
    "OselmModel",
    "init_hidden",
    "hidden_output",
    "init_phase",
    "update",
    "predict_raw",
    "save_model",
    "load_model",
]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # The tanh form of 1 / (1 + exp(-z)) cannot overflow for large |z|.
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def _sine(z: np.ndarray) -> np.ndarray:
    return np.sin(z, out=z)


def _hardlim(z: np.ndarray) -> np.ndarray:
    return (z > 0).astype(float)


# Each activation may overwrite its float64 argument and return it:
# hidden_output hands over its own pre-activation buffer.
ACTIVATIONS = {
    "sigmoid": _sigmoid,
    "sine": _sine,
    "hardlim": _hardlim,
}


@dataclass(frozen=True)
class HiddenLayer:
    """Random input weights and biases, frozen after construction."""

    weights: np.ndarray  # hidden_count x input_dim
    biases: np.ndarray  # hidden_count
    activation: str

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def hidden_count(self) -> int:
        return self.weights.shape[0]


def init_hidden(
    input_dim: int, hidden_count: int, activation: str = "sigmoid", seed: int = 0
) -> HiddenLayer:
    """Draw a frozen random hidden layer, deterministically from ``seed``.

    Weights are uniform on [-1, 1], biases uniform on [0, 1].
    """
    if input_dim < 1 or hidden_count < 1:
        raise ValueError(
            f"input_dim and hidden_count must be >= 1, got {input_dim}, {hidden_count}"
        )
    if activation not in ACTIVATIONS:
        raise ValueError(
            f"unknown activation {activation!r}; choose from {sorted(ACTIVATIONS)}"
        )
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(hidden_count, input_dim))
    biases = rng.uniform(0.0, 1.0, size=hidden_count)
    weights.setflags(write=False)
    biases.setflags(write=False)
    return HiddenLayer(weights=weights, biases=biases, activation=activation)


def hidden_output(layer: HiddenLayer, x) -> np.ndarray:
    """Hidden-layer activations: entry (j, i) = g(w_i . x_j + b_i)."""
    x = as_matrix(x, "input")
    if x.shape[1] != layer.input_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, hidden layer expects {layer.input_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ layer.weights.T
        z += layer.biases
    # Overflow is reported by this check, not as a warning. It covers the
    # activations too: each maps finite input to finite output.
    ensure_finite(z, "hidden pre-activations")
    return ACTIVATIONS[layer.activation](z)


@dataclass
class OselmModel:
    """Trained state: frozen hidden layer, running inverse Gram matrix,
    output weights, and the calibrated decode threshold."""

    hidden: HiddenLayer
    gram_inv: np.ndarray  # hidden_count x hidden_count
    beta: np.ndarray  # hidden_count x label_count
    threshold: float = 0.0
    samples_seen: int = 0
    blocks_seen: int = 0

    @property
    def label_count(self) -> int:
        return self.beta.shape[1]


def _check_bipolar(y: np.ndarray, name: str = "targets") -> np.ndarray:
    y = as_matrix(y, name)
    if not (np.abs(y) == 1.0).all():
        raise ValueError(f"{name} must be bipolar (-1/+1)")
    return y


def init_phase(layer: HiddenLayer, x0, y0, ridge: float = 0.0) -> OselmModel:
    """Batch initialization on the first data block.

    Solves the regularized normal equations for the initial output
    weights and stores the inverse Gram matrix that the sequential phase
    will keep updating. With ridge = 0 the block must have at least as
    many rows as there are hidden neurons, else the Gram matrix is
    singular and SingularMatrixError is raised.
    """
    x0 = as_matrix(x0, "initial features")
    y0 = _check_bipolar(y0, "initial targets")
    if x0.shape[0] != y0.shape[0]:
        raise ShapeError(
            f"initial block has {x0.shape[0]} feature rows but {y0.shape[0]} target rows"
        )
    if not (np.isfinite(ridge) and ridge >= 0.0):
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge}")
    h0 = hidden_output(layer, x0)
    gram = h0.T @ h0  # numpy computes A'A with syrk: exactly symmetric
    if ridge > 0.0:
        gram[np.diag_indices_from(gram)] += ridge
    # The factor only certifies definiteness. numpy has no triangular
    # inverse, and LAPACK's general inverse beats inverting the factor
    # through it.
    cholesky_spd(gram)
    gram_inv = np.linalg.inv(gram)
    # update() needs M exactly symmetric: its downdates keep M only as
    # symmetric as they find it.
    gram_inv = (gram_inv + gram_inv.T) / 2.0
    ensure_finite(gram_inv, "inverse Gram matrix")
    beta = gram_inv @ (h0.T @ y0)
    ensure_finite(beta, "initial output weights")
    return OselmModel(
        hidden=layer,
        gram_inv=gram_inv,
        beta=beta,
        samples_seen=x0.shape[0],
        blocks_seen=1,
    )


def update(model: OselmModel, x, y) -> np.ndarray:
    """Recursive least-squares update with one sample or a block.

    With M the inverse Gram matrix and H the B x hidden_count hidden
    output of the new rows, the update is the Woodbury identity

        M_new = M - M H' S^-1 H M,    S = I_B + H M H'
        beta_new = beta + M_new H' (Y - H beta),

    computed in factor form so that M_new is symmetric by construction
    and the weight step never reads M_new. For a block, S = L L' is
    factored and V = L^-1 H M, which gives

        M_new = M - V'V
        beta_new = beta + V' L^-1 (Y - H beta),

    using M_new H' = M H' S^-1. A single sample has S = 1 + h'M h, so
    with g = M h / sqrt(S)

        M_new = M - g g'
        beta_new = beta + (M h / S) (y' - h' beta),

    using M_new h = M h / S. Both downdates subtract an exactly
    symmetric product from M, so M_new is as symmetric as M.

    The model is updated in place, and the raw outputs H beta it had for
    the new rows are returned: bit for bit what ``predict_raw`` gave just
    before the call, so ``decode(update(model, x, y), threshold)`` is a
    test-then-train step with one hidden projection. The model is left
    unchanged when the update raises: S that is not positive definite
    raises NumericalError, as do non-finite results.
    """
    if model.samples_seen < 1:
        raise ValueError("model has not been initialized")
    x = as_matrix(x, "features")
    y = _check_bipolar(y, "targets")
    if x.shape[0] < 1:
        raise ShapeError("update needs at least one sample")
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"{x.shape[0]} feature rows but {y.shape[0]} target rows")
    if y.shape[1] != model.label_count:
        raise ShapeError(
            f"targets have {y.shape[1]} labels, model expects {model.label_count}"
        )
    h = hidden_output(model.hidden, x)
    raw = h @ model.beta
    m = model.gram_inv
    if x.shape[0] == 1:
        hv = h[0]
        mh = m @ hv
        denom = 1.0 + hv @ mh
        if denom <= 0.0:
            raise NumericalError(
                f"update denominator {denom:.3e} <= 0: inverse Gram matrix "
                "lost positive-definiteness"
            )
        g = mh / np.sqrt(denom)
        # g g' through BLAS (gemm with one inner term): each entry is the
        # single rounded product g_i g_j, exactly as np.outer gives it, so
        # the downdate is exactly symmetric; np.outer's broadcast loop took
        # twice as long and its time swung with the machine's load.
        downdate = np.dot(g[:, None], g[None, :])
        residual = y[0] - raw[0]
        beta_new = model.beta + np.outer(mh / denom, residual)
    else:
        hm = h @ m  # B x hidden_count, equal to (M H')' as M is symmetric
        s = np.eye(x.shape[0]) + hm @ h.T
        s = (s + s.T) / 2.0
        l_inv = np.linalg.inv(cholesky_spd(s))
        v = l_inv @ hm
        downdate = v.T @ v  # numpy computes A'A with syrk: exactly symmetric
        residual = y - raw
        beta_new = model.beta + v.T @ (l_inv @ residual)
    # Written over the downdate's fresh buffer: one H x H allocation, and
    # the model's own arrays stay untouched until every check has passed.
    m_new = np.subtract(m, downdate, out=downdate)
    ensure_finite(m_new, "inverse Gram matrix")
    ensure_finite(beta_new, "output weights")
    model.gram_inv = m_new
    model.beta = beta_new
    model.samples_seen += x.shape[0]
    model.blocks_seen += 1
    return raw


def predict_raw(model: OselmModel, x) -> np.ndarray:
    """Raw (unthresholded) output values: hidden activations times beta."""
    return ensure_finite(hidden_output(model.hidden, x) @ model.beta, "raw outputs")


# ---------------------------------------------------------------------------
# Serialization, format v2: a UTF-8 text header (the tag line, one "key value"
# line per _HEADER entry, an "end" line), then weights, biases, gram_inv, beta
# and, with a normalizer, scale and offset as raw little-endian float64. The
# header counts fix every shape, and raw floats round-trip bit for bit.

_FORMAT_TAG = "elmstream-model"
_FORMAT_VERSION = "2"


def _count(text: str, path: str, lineno: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise DataError(f"{path}:{lineno}: {what} must be an integer >= 1, got {text!r}")
    return value


def _choice(options):
    def parse(text: str, path: str, lineno: int, what: str) -> str:
        if text not in options:
            raise DataError(f"{path}:{lineno}: unknown {what} {text!r}")
        return text

    return parse


# The header keys in file order, each with the parser that checks its value.
_HEADER = {
    "activation": _choice(ACTIVATIONS),
    "input_dim": _count,
    "hidden_count": _count,
    "label_count": _count,
    "threshold": _finite_float,
    "samples_seen": _count,
    "blocks_seen": _count,
    "normalizer": _choice(("none", "affine")),
}


def save_model(path, model: OselmModel, normalizer: Normalizer | None = None) -> None:
    """Write the model (and the feature normalizer, if any) in format v2."""
    fields = {
        "activation": model.hidden.activation,
        "input_dim": model.hidden.input_dim,
        "hidden_count": model.hidden.hidden_count,
        "label_count": model.label_count,
        "threshold": float(model.threshold),  # str() gives the shortest exact form
        "samples_seen": model.samples_seen,
        "blocks_seen": model.blocks_seen,
        "normalizer": "none" if normalizer is None else "affine",
    }
    header = [f"{_FORMAT_TAG} {_FORMAT_VERSION}"]
    header += [f"{key} {fields[key]}" for key in _HEADER] + ["end"]
    arrays = [model.hidden.weights, model.hidden.biases, model.gram_inv, model.beta]
    if normalizer is not None:
        arrays += [normalizer.scale, normalizer.offset]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_model(path) -> tuple[OselmModel, Normalizer | None]:
    """Read a model file written by save_model."""
    with open(path, "rb") as fh:
        head = [fh.readline() for _ in range(len(_HEADER) + 2)]
        payload = fh.read()
    try:
        lines = [line.decode("utf-8").rstrip("\n") for line in head]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if lines[0].split() != [_FORMAT_TAG, _FORMAT_VERSION]:
        raise DataError(f"{path}: not an {_FORMAT_TAG} v{_FORMAT_VERSION} file")
    fields = {}
    for lineno, key, line in zip(range(2, len(lines)), _HEADER, lines[1:]):
        name, _, text = line.partition(" ")
        if name != key:
            raise DataError(f"{path}: expected '{key} <value>' at line {lineno}")
        fields[key] = _HEADER[key](text, path, lineno, key)
    if lines[-1] != "end":
        raise DataError(f"{path}: missing end marker")
    dim, hidden, labels = fields["input_dim"], fields["hidden_count"], fields["label_count"]
    shapes = [(hidden, dim), (hidden,), (hidden, hidden), (hidden, labels)]
    if fields["normalizer"] == "affine":
        shapes += [(dim,), (dim,)]
    sizes = [math.prod(shape) for shape in shapes]
    if len(payload) != 8 * sum(sizes):
        raise DataError(
            f"{path}: {len(payload)} bytes of arrays, the header needs {8 * sum(sizes)}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: non-finite array value")
    weights, biases, gram_inv, beta, *norm = (
        part.reshape(shape).astype(float)
        for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)
    )
    if _asymmetric(gram_inv):
        raise DataError(f"{path}: gram_inv is not symmetric to {SYMMETRY_RTOL:g} relative")
    weights.setflags(write=False)
    biases.setflags(write=False)
    layer = HiddenLayer(weights=weights, biases=biases, activation=fields["activation"])
    model = OselmModel(
        hidden=layer,
        gram_inv=gram_inv,
        beta=beta,
        threshold=fields["threshold"],
        samples_seen=fields["samples_seen"],
        blocks_seen=fields["blocks_seen"],
    )
    return model, Normalizer(*norm) if norm else None

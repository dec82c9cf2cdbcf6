"""The online sequential ELM learner.

A single hidden layer of random, frozen projections feeds a linear output
map. Training happens in two phases: a batch least-squares solve on an
initial block, then rank-one (per sample) or Woodbury (per block)
recursive least-squares updates as further data streams in. The model
keeps the running inverse Gram matrix so the maintained output weights
always equal the batch solution on everything seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Normalizer, _finite_float, _text_lines
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


def update(model: OselmModel, x, y) -> OselmModel:
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

    The model is updated in place and returned. It is left unchanged
    when the update raises: S that is not positive definite raises
    NumericalError, as do non-finite results.
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
        residual = y[0] - hv @ model.beta
        beta_new = model.beta + np.outer(mh / denom, residual)
    else:
        hm = h @ m  # B x hidden_count, equal to (M H')' as M is symmetric
        s = np.eye(x.shape[0]) + hm @ h.T
        s = (s + s.T) / 2.0
        l_inv = np.linalg.inv(cholesky_spd(s))
        v = l_inv @ hm
        downdate = v.T @ v  # numpy computes A'A with syrk: exactly symmetric
        residual = y - h @ model.beta
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
    return model


def predict_raw(model: OselmModel, x) -> np.ndarray:
    """Raw (unthresholded) output values: hidden activations times beta."""
    return ensure_finite(hidden_output(model.hidden, x) @ model.beta, "raw outputs")


# ---------------------------------------------------------------------------
# Serialization: a self-describing text format. Floats are written with 17
# significant digits so a load/save round trip is bit-exact.

_FORMAT_TAG = "elmstream-model"
_FORMAT_VERSION = "1"


def _fmt(value: float) -> str:
    return "%.17g" % value


def _matrix_lines(tag: str, a: np.ndarray) -> list[str]:
    lines = [f"{tag} {a.shape[0]} {a.shape[1]}"]
    lines += [" ".join(_fmt(v) for v in row) for row in a]
    return lines


def save_model(path, model: OselmModel, normalizer: Normalizer | None = None) -> None:
    """Write the model (and the feature normalizer, if any) as text."""
    lines = [
        f"{_FORMAT_TAG} {_FORMAT_VERSION}",
        f"activation {model.hidden.activation}",
        f"input_dim {model.hidden.input_dim}",
        f"hidden_count {model.hidden.hidden_count}",
        f"label_count {model.label_count}",
        f"threshold {_fmt(model.threshold)}",
        f"samples_seen {model.samples_seen}",
        f"blocks_seen {model.blocks_seen}",
    ]
    lines += _matrix_lines("weights", model.hidden.weights)
    lines.append("biases " + str(model.hidden.biases.size))
    lines.append(" ".join(_fmt(v) for v in model.hidden.biases))
    lines += _matrix_lines("gram_inv", model.gram_inv)
    lines += _matrix_lines("beta", model.beta)
    if normalizer is None:
        lines.append("normalizer none")
    else:
        lines.append(f"normalizer {normalizer.scale.size}")
        lines.append(" ".join(_fmt(v) for v in normalizer.scale))
        lines.append(" ".join(_fmt(v) for v in normalizer.offset))
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _Reader:
    def __init__(self, path):
        self.path = str(path)
        self.lines = [line.rstrip("\n") for _, line in _text_lines(self.path)]
        self.pos = 0

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise DataError(f"{self.path}: truncated model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def field(self, key: str) -> str:
        parts = self.next_line().split(None, 1)
        if len(parts) != 2 or parts[0] != key:
            raise DataError(f"{self.path}: expected '{key} <value>' at line {self.pos}")
        return parts[1]

    def count(self, text: str, what: str) -> int:
        """Parse a count from the line just read: an integer >= 1."""
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise DataError(
                f"{self.path}:{self.pos}: {what} must be an integer >= 1, got {text!r}"
            )
        return value

    def count_field(self, key: str) -> int:
        return self.count(self.field(key), key)

    def floats(self, count: int) -> np.ndarray:
        values = self.next_line().split()
        if len(values) != count:
            raise DataError(
                f"{self.path}: expected {count} values at line {self.pos}, got {len(values)}"
            )
        try:
            out = np.array([float(v) for v in values])
        except ValueError:
            raise DataError(f"{self.path}: bad numeric value at line {self.pos}") from None
        if not np.isfinite(out).all():
            raise DataError(f"{self.path}: non-finite value at line {self.pos}")
        return out

    def matrix(self, key: str) -> np.ndarray:
        header = self.field(key).split()
        if len(header) != 2:
            raise DataError(f"{self.path}: bad {key} header at line {self.pos}")
        rows, cols = (self.count(v, f"{key} size") for v in header)
        return np.vstack([self.floats(cols) for _ in range(rows)]).reshape(rows, cols)


def load_model(path) -> tuple[OselmModel, Normalizer | None]:
    """Read a model file written by save_model."""
    r = _Reader(path)
    head = r.next_line().split()
    if head != [_FORMAT_TAG, _FORMAT_VERSION]:
        raise DataError(f"{r.path}: not a {_FORMAT_TAG} v{_FORMAT_VERSION} file")
    activation = r.field("activation")
    if activation not in ACTIVATIONS:
        raise DataError(f"{r.path}: unknown activation {activation!r}")
    input_dim = r.count_field("input_dim")
    hidden_count = r.count_field("hidden_count")
    label_count = r.count_field("label_count")
    threshold = _finite_float(r.field("threshold"), r.path, r.pos, "threshold")
    samples_seen = r.count_field("samples_seen")
    blocks_seen = r.count_field("blocks_seen")
    weights = r.matrix("weights")
    biases = r.floats(r.count_field("biases"))
    gram_inv = r.matrix("gram_inv")
    beta = r.matrix("beta")
    if weights.shape != (hidden_count, input_dim):
        raise DataError(f"{r.path}: weights shape {weights.shape} does not match header")
    if biases.size != hidden_count:
        raise DataError(f"{r.path}: {biases.size} biases for {hidden_count} hidden neurons")
    if gram_inv.shape != (hidden_count, hidden_count) or beta.shape != (
        hidden_count,
        label_count,
    ):
        raise DataError(f"{r.path}: matrix shapes do not match header")
    if _asymmetric(gram_inv):
        raise DataError(f"{r.path}: gram_inv is not symmetric to {SYMMETRY_RTOL:g} relative")
    norm_field = r.field("normalizer")
    normalizer = None
    if norm_field != "none":
        dim = r.count(norm_field, "normalizer width")
        if dim != input_dim:
            raise DataError(f"{r.path}: normalizer width {dim} != input_dim {input_dim}")
        normalizer = Normalizer(scale=r.floats(dim), offset=r.floats(dim))
    if r.next_line() != "end":
        raise DataError(f"{r.path}: missing end marker")
    weights.setflags(write=False)
    biases.setflags(write=False)
    layer = HiddenLayer(weights=weights, biases=biases, activation=activation)
    model = OselmModel(
        hidden=layer,
        gram_inv=gram_inv,
        beta=beta,
        threshold=threshold,
        samples_seen=samples_seen,
        blocks_seen=blocks_seen,
    )
    return model, normalizer

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
    ShapeError,
    all_finite,
    as_matrix,
    ensure_finite,
    inverse_factor,
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


@dataclass(frozen=True, eq=False)
class HiddenLayer:
    """Random input weights and biases, frozen after construction.

    Construction checks the layer: an activation not in ``ACTIVATIONS``
    raises ValueError, and weights that are not 2-D or biases that are not
    one entry per neuron raise ShapeError, so one bias is never broadcast
    over every neuron. Construction makes the two arrays read-only, so a
    write into them in place raises numpy's ValueError, and records once
    whether the layer is bounded: |W|^2 + |b|^2 <= 2^200, under which
    ``hidden_output`` skips numpy's overflow guard. Copies and unpickling
    construct the layer again. Layers compare and hash by identity: ==
    would compare their arrays.
    """

    weights: np.ndarray  # hidden_count x input_dim
    biases: np.ndarray  # hidden_count
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; choose from {sorted(ACTIVATIONS)}"
            )
        if self.weights.ndim != 2 or self.biases.shape != self.weights.shape[:1]:
            raise ShapeError(
                f"weights must be 2-D with one bias per row, got shapes {self.weights.shape} "
                f"and {self.biases.shape}"
            )
        self.weights.setflags(write=False)
        self.biases.setflags(write=False)
        norm = np.vdot(self.weights, self.weights) + np.vdot(self.biases, self.biases)
        object.__setattr__(self, "_bounded", bool(norm <= _LAYER_LIMIT))  # NaN fails too

    def __reduce__(self):
        return HiddenLayer, (self.weights, self.biases, self.activation)

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
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(hidden_count, input_dim))
    biases = rng.uniform(0.0, 1.0, size=hidden_count)
    return HiddenLayer(weights=weights, biases=biases, activation=activation)


# hidden_output projects without np.errstate, which costs about 2 us a
# call, while two bounds keep z = x W' + b finite. With |W|^2 + |b|^2 <=
# 2^200 on the layer, every |w_i| and |b_i| is at most 2^100; with
# s = |x|^2 <= 2^800 over the whole input, every |x_j| is at most 2^400. So
# |z_ji| <= |w_i| |x_j| + |b_i| <= 2^500 + 2^100, and so is every partial
# sum of the product: far below the largest float, 2^1024. Any other input
# is projected under np.errstate and the finiteness check reports the
# overflow.
_LAYER_LIMIT = 2.0**200
_INPUT_LIMIT = 2.0**800


def hidden_output(layer: HiddenLayer, x) -> np.ndarray:
    """Hidden-layer activations: entry (j, i) = g(w_i . x_j + b_i).

    Overflow in the projection is reported as NumericalError, never as
    numpy's warning. On a bounded layer (see ``HiddenLayer``) and an input
    whose squared norm is at most 2^800 it cannot happen, and no check
    runs; any other input is checked.
    """
    x = as_matrix(x, "input")
    if x.shape[1] != layer.input_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, hidden layer expects {layer.input_dim}"
        )
    # Each activation maps finite input to finite output, so a finite z
    # proves the activations finite too.
    if layer._bounded and np.vdot(x, x) <= _INPUT_LIMIT:  # a NaN or inf sum fails
        z = x @ layer.weights.T
        z += layer.biases
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            z = x @ layer.weights.T
            z += layer.biases
        # Overflow is reported by this check, not as a warning.
        ensure_finite(z, "hidden pre-activations")
    return ACTIVATIONS[layer.activation](z)


# The buffer that holds the pending factor G has _capacity(B, H) rows after
# a fold by a block of B rows. Each pending row costs every later step
# 2 B H flops in (H G') G, while each fold spares the steps since the last
# one their passes over the H x H matrix. Per update on one OpenBLAS
# thread, at H = 300 and 1000, deferral gained for blocks of up to about
# H / 8 rows with up to H / 4 rows pending, and a buffer of 4 B rows at
# B = H lost 30-40%. A wider block so gets no buffer: each of its updates
# folds at once, the direct downdate.
_PENDING_ROWS = 32


# predict_raw keeps the hidden output of an arrival of at most _RECORD_ROWS
# rows for the update that learns it next: 0.5 MB at H = 1000. Arrivals of 1
# to 50 rows fit; calibrations and test-set scorings of 600 to 1500 rows do
# not. Kept too, the hidden outputs of a calibration on the init block
# (12 MB at H = 1000) and of a 1196-row scoring (9.6 MB) stayed alive until
# the next update and raised a block_h1000 run's peak RSS from 154.9 MB to
# 177 MB; records of at most 64 rows read 154.4-155.0 MB.
_RECORD_ROWS = 64

# init_phase records an initial block for the calibration on it when the
# block's hidden output h0, held through the inverse and then by the record,
# and the record's copy of the rows take at most _INIT_RECORD_BYTES: 1.9 MB
# for 600 rows of 103 features at H = 300, where the calibration's second
# projection took about 13% of prequential_b1's set-up. block_h1000's
# 1500 x 294 block at H = 1000 (15.5 MB) stays over it: holding its 12 MB h0
# raised a run's peak RSS from 154.2 MB to 171.1 MB, and under a 4 MiB
# bound it read 154.1 MB.
_INIT_RECORD_BYTES = 4 * 2**20


def _capacity(rows: int, hidden_count: int) -> int:
    capacity = min(max(_PENDING_ROWS, 4 * rows), hidden_count // 4)
    return capacity if 2 * rows <= capacity else 0


# Products of the hidden output with the state run without np.errstate
# while two bounds keep them finite. Every activation maps into [-1, 1], so
# a row h of hidden output has |h| <= sqrt(H). Let mu be max|M0| plus the
# pending rows' squared norms (the model's _load, which update keeps as
# this sum) and q = |beta|^2. Then every entry of h M,
# pending rows included, is at most a = H mu; of h M h', at most H a; of
# h beta, at most sqrt(H q); of Y - h beta, at most r = 1 + sqrt(H q). A
# single row's S is at least 2^-53 once it passes the sign check, so V and
# the weight step grow by at most 2^27, and V' step is at most 2^54 a r. For
# a block, S >= I while M is positive semidefinite, as the learner keeps it,
# and they grow by at most sqrt(B). M has H^2 entries, so H < 2^32, and with
# mu <= 2^400 and q <= 2^800, H a r <= 2^881 and 2^54 a r <= 2^903: far
# below the largest float, 2^1024. So predict_raw's h beta is not checked
# while q <= 2^800. Past a bound the products run under np.errstate, and
# the finiteness checks after them report the overflow. Rows stay pending
# only while mu stays at most 2^400 too, so every entry of their fold,
# at most mu, is finite.
_LOAD_LIMIT = 2.0**400
_BETA_LIMIT = 2.0**800


def _peak(m: np.ndarray) -> float:
    """max|m|: NaN or inf when m is not finite."""
    return float(max(m.max(), -m.min()))  # no |m| temporary


def _fold(base: np.ndarray, pending: np.ndarray) -> tuple[np.ndarray, float]:
    """M0 - G'G in G'G's fresh buffer, read-only, and its peak. numpy
    computes G'G with syrk, so the result is exactly symmetric when M0
    is."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check
        m = pending.T @ pending
        np.subtract(base, m, out=m)
    peak = _peak(m)
    if not math.isfinite(peak):
        raise NumericalError("inverse Gram matrix contains non-finite entries")
    m.setflags(write=False)
    return m, peak


def _check_gram_inv(m: np.ndarray, layer: HiddenLayer) -> None:
    n = layer.hidden_count
    if m.shape != (n, n):
        raise ShapeError(f"gram_inv must have shape {(n, n)} for {n} neurons, got {m.shape}")
    if not np.array_equal(m, m.T):  # update reads h M0 as (M0 H')'
        raise ValueError("gram_inv is not exactly symmetric")


def _check_beta(beta: np.ndarray, layer: HiddenLayer) -> None:
    n = layer.hidden_count
    if beta.ndim != 2 or beta.shape[0] != n or beta.shape[1] < 1:
        raise ShapeError(
            f"beta must have shape ({n}, labels) with labels >= 1 for {n} neurons, "
            f"got {beta.shape}"
        )


class OselmModel:
    """Trained state: frozen hidden layer, running inverse Gram matrix,
    output weights, and the calibrated decode threshold.

    The inverse Gram matrix M is held as M0 - G'G with G the downdate rows
    ``update`` has not folded into M0 yet. Reading ``gram_inv`` gives the
    folded M (a fresh array while rows are pending) without changing the
    state; assigning it sets M0 and drops the pending rows. ``copy.copy``
    gives a model with its own buffer for G, so the copy and the original
    can be updated apart.

    Assigning ``gram_inv`` or ``beta`` checks its shape against the hidden
    layer, as unpickling does: M must be H x H and beta 2-D with H rows and
    at least one column, for H neurons, else ShapeError names both shapes.
    M must also be exactly symmetric, as ``update`` reads h M0 as (M0 H')',
    else ValueError. ``update`` writes its results past these checks, as
    they hold by construction, so no arrival pays for them.

    M and beta are read-only, so what passed these checks stays as it
    was: assigning ``gram_inv`` makes the array itself read-only, with no
    copy, assigning ``beta`` stores a read-only copy, ``update`` stores its
    new M0 and weights read-only, a read of ``gram_inv`` while rows are
    pending gives a read-only M, and a write into any of them in place
    raises numpy's ValueError. Assigning ``gram_inv`` or ``beta`` also
    records max|M0| and |beta|^2. One bound governs the load, max|M0| plus
    the pending rows' squared norms: ``update`` keeps rows pending only
    while it is at most 2^400, and under that bound, with |beta|^2 <=
    2^800, ``update`` and ``predict_raw`` skip numpy's overflow guard.

    ``predict_raw`` on an arrival of 1 to 64 rows keeps one record of the
    rows and their hidden output h: the hidden layer object, the rows'
    shape, a private copy of their bytes, h and a private copy of the raw
    outputs h beta. The record is valid until ``beta`` is written:
    assigning ``beta`` drops it, and so does every ``update``. The next
    ``update`` reuses h and the raw outputs when it learns the same rows,
    in the same shape, through the same layer. ``init_phase`` leaves a
    record of a small enough initial block, for the ``predict_raw`` that
    calibrates the threshold. The record is never saved. ``copy.copy``,
    which shares the record's arrays, drops it, as ``update`` hands out the
    record's own raw outputs; ``copy.deepcopy`` and pickle copy it with the
    rest of the model, the copy's own layer in it.
    """

    def __init__(
        self,
        hidden: HiddenLayer,
        gram_inv: np.ndarray,  # hidden_count x hidden_count
        beta: np.ndarray,  # hidden_count x label_count
        threshold: float = 0.0,
        samples_seen: int = 0,
        blocks_seen: int = 0,
    ):
        self.hidden = hidden
        self.gram_inv = gram_inv
        self.beta = beta
        self.threshold = threshold
        self.samples_seen = samples_seen
        self.blocks_seen = blocks_seen

    @property
    def gram_inv(self) -> np.ndarray:
        if self._pending == 0:
            return self._base
        return _fold(self._base, self._downdates[: self._pending])[0]

    @gram_inv.setter
    def gram_inv(self, m: np.ndarray) -> None:
        _check_gram_inv(m, self.hidden)
        m.setflags(write=False)
        self._base = m  # M0
        self._downdates = np.empty((_capacity(1, len(m)), len(m)))  # G is its first rows
        self._pending = 0
        self._load = _peak(m)  # plus the pending rows' squared norms

    @property
    def beta(self) -> np.ndarray:
        return self._beta

    @beta.setter
    def beta(self, beta: np.ndarray) -> None:
        beta = np.array(beta)  # a copy: the caller's array stays theirs
        _check_beta(beta, self.hidden)
        beta.setflags(write=False)
        self._beta = beta
        self._beta_sq = float(np.vdot(beta, beta))  # |beta|^2, inf or NaN past a float
        # (layer, shape, row bytes, h, raw outputs) of the rows predict_raw or
        # init_phase projected last: valid under this beta only
        self._projected = None

    def __copy__(self) -> OselmModel:
        twin = object.__new__(OselmModel)
        twin.__dict__.update(self.__dict__)
        twin._downdates = self._downdates.copy()  # update writes into it
        twin._projected = None  # update hands out the record's raw outputs
        return twin

    def __setstate__(self, state):
        # copy.deepcopy and pickle give writable copies of M0 and beta.
        self.__dict__.update(state)
        _check_gram_inv(self._base, self.hidden)
        _check_beta(self._beta, self.hidden)
        self._base.setflags(write=False)
        self._beta.setflags(write=False)

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

    When the block's hidden output h0 and a copy of its rows take at most
    ``_INIT_RECORD_BYTES`` (4 MiB), h0 is kept until the weights are
    formed, and the model then holds a record of the rows, h0 and
    h0 beta, valid until ``beta`` is written, as ``predict_raw`` leaves
    one. So ``predict_raw`` on the same rows, as a threshold calibration
    makes, does not project them again, nor does an ``update`` on them.
    """
    x0 = as_matrix(x0, "initial features")
    y0 = _check_bipolar(y0, "initial targets")
    if x0.shape[0] < 1:
        raise ShapeError("initial block needs at least one sample")
    if x0.shape[0] != y0.shape[0]:
        raise ShapeError(
            f"initial block has {x0.shape[0]} feature rows but {y0.shape[0]} target rows"
        )
    if not (np.isfinite(ridge) and ridge >= 0.0):
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge}")
    h0 = hidden_output(layer, x0)
    gram = h0.T @ h0  # numpy computes A'A with syrk: exactly symmetric
    hty = h0.T @ y0
    # A large h0 (N0 x H) is freed before the inverse's buffers are
    # allocated: kept alive, it raised the peak RSS of a stream run at
    # H = 1000, N0 = 1500 by 15 MB. See _INIT_RECORD_BYTES.
    if h0.nbytes + x0.nbytes > _INIT_RECORD_BYTES:
        h0 = None
    if ridge > 0.0:
        gram[np.diag_indices_from(gram)] += ridge
    l_inv = inverse_factor(gram)
    # M = L^-T L^-1 by syrk is exactly symmetric, as update() needs M: its
    # downdates keep M only as symmetric as they find it.
    gram_inv = l_inv.T @ l_inv
    ensure_finite(gram_inv, "inverse Gram matrix")
    beta = gram_inv @ hty
    ensure_finite(beta, "initial output weights")
    model = OselmModel(
        hidden=layer,
        gram_inv=gram_inv,
        beta=beta,
        samples_seen=x0.shape[0],
        blocks_seen=1,
    )
    if h0 is not None and model._beta_sq <= _BETA_LIMIT:
        # h0 beta is finite: see _LOAD_LIMIT
        model._projected = (layer, x0.shape, x0.tobytes(), h0, h0 @ model._beta)
    return model


def update(model: OselmModel, x, y) -> np.ndarray:
    """Recursive least-squares update with one sample or a block.

    With M the inverse Gram matrix and H the B x hidden_count hidden
    output of the new rows, the update is the Woodbury identity

        M_new = M - M H' S^-1 H M,    S = I_B + H M H'
        beta_new = beta + M_new H' (Y - H beta).

    S = L L' is factored and V = L^-1 H M, which gives

        M_new = M - V'V
        beta_new = beta + V' L^-1 (Y - H beta),

    using M_new H' = M H' S^-1, so the weight step never reads M_new. A
    single sample has the scalar S = 1 + h'M h and V = g' with
    g = M h / sqrt(S).

    M_new is not formed. The model holds M = M0 - G'G, and V's rows are
    appended to the pending factor G, so the step needs only

        H M = H M0 - (H G') G,

    one pass over M0 plus O(B H K) for K pending rows. V's rows are
    appended while they fit in G's buffer, fill at most half of it, and
    keep the load, max|M0| plus the pending rows' squared norms, at most
    2^400, the bound under which the products skip numpy's overflow guard
    and every entry of the fold is finite. Otherwise G and V are folded in,
    M0 <- M0 - [G; V]'[G; V], with one syrk: exactly symmetric, so M stays
    exactly symmetric. The buffer then holds 32 rows, or 4 B for a block
    of B rows, but at most H / 4; a block of more than about H / 8 rows
    gets none and folds at every update, as a direct downdate. Folds
    follow from the stream alone, so the model's state, and its saved
    bytes, are reproducible.

    The model is updated in place, and the raw outputs H beta it had for
    the new rows are returned: bit for bit what ``predict_raw`` gave just
    before the call, so ``decode(update(model, x, y), threshold)`` is a
    test-then-train step with one hidden projection. ``predict_raw`` then
    ``update`` on the same rows projects them once too: the model's record
    of rows and their hidden output is valid until ``beta`` is written, and
    the update reuses its hidden output and raw outputs H beta when it gets
    rows of the recorded shape whose bytes equal the recorded rows' and the
    model's ``hidden`` is the layer that projected them. Any other update
    projects its rows and multiplies them by beta itself. Every update
    drops the record, also one that raises, and lets go of it before the
    Woodbury step allocates its arrays. The new weights are stored
    read-only. The model is left unchanged when the update raises: S that
    is not positive definite raises NumericalError, as do non-finite V,
    weights or folded M0; a product that overflows is reported by these
    checks, never as numpy's warning. A row whose fold could overflow is
    folded by the update that brings it, so the pending rows always fold
    finitely: a read of ``gram_inv``, such as ``save_model``'s, does not
    raise, and the update that made M overflow is the one that raises.
    """
    projected, model._projected = model._projected, None
    if model.samples_seen < 1:
        raise ValueError("model has not been initialized")
    x = as_matrix(x, "features")
    y = _check_bipolar(y, "targets")
    rows = x.shape[0]
    if rows < 1:
        raise ShapeError("update needs at least one sample")
    if rows != y.shape[0]:
        raise ShapeError(f"{rows} feature rows but {y.shape[0]} target rows")
    if y.shape[1] != model.label_count:
        raise ShapeError(
            f"targets have {y.shape[1]} labels, model expects {model.label_count}"
        )
    if _recorded(projected, model, x):
        h, raw = projected[3], projected[4]
    else:
        h = hidden_output(model.hidden, x)
        raw = None
    # Held until the update returned, the record moved a block_h1000 run's
    # peak RSS between glibc's modes of about 154.9 and 170 MB, with the
    # allocation order.
    del projected
    load = model._load  # a NaN load or weight norm fails its bound too
    if load <= _LOAD_LIMIT and model._beta_sq <= _BETA_LIMIT:
        raw, v, norms, beta_new, beta_sq = _step(model, h, y, raw)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the checks
            raw, v, norms, beta_new, beta_sq = _step(model, h, y, raw)
    base, buffer, pending = model._base, model._downdates, model._pending
    # The model's state is replaced only after the fold's check.
    if pending + rows <= len(buffer) and 2 * rows <= len(buffer) and load + norms <= _LOAD_LIMIT:
        buffer[pending : pending + rows] = v
        pending += rows
        load += norms
    else:
        base, load = _fold(base, np.concatenate((buffer[:pending], v)))
        pending = 0
        capacity = _capacity(rows, len(base))
        if len(buffer) != capacity:
            buffer = np.empty((capacity, len(base)))
    model._base, model._downdates, model._pending, model._load = base, buffer, pending, load
    beta_new.setflags(write=False)
    model._beta, model._beta_sq = beta_new, beta_sq
    model.samples_seen += rows
    model.blocks_seen += 1
    return raw


def _step(model: OselmModel, h: np.ndarray, y: np.ndarray, raw: np.ndarray | None):
    """``update``'s Woodbury step on hidden output ``h`` and targets ``y``:
    the raw outputs h beta (``raw`` when given), V, the sum of V's squared
    row norms, the new weights and their squared norm. The model is not
    changed."""
    rows = len(h)
    if raw is None:
        raw = h @ model._beta
    base, pending = model._base, model._pending
    hm = h @ base  # B x hidden_count, equal to (M0 H')' as M0 is symmetric
    if pending:
        g = model._downdates[:pending]
        hm -= (h @ g.T) @ g
    residual = y - raw
    if rows == 1:
        denom = 1.0 + np.vdot(hm, h)
        if denom <= 0.0:
            raise NumericalError(
                f"update denominator {denom:.3e} <= 0: inverse Gram matrix "
                "lost positive-definiteness"
            )
        if denom == math.inf:  # np.vdot overflows with no warning
            raise NumericalError("update denominator overflowed: inverse Gram matrix too large")
        root = math.sqrt(denom)
        hm /= root
        v = hm
        residual /= root
        step = residual
    else:
        s = np.eye(rows) + hm @ h.T
        s = (s + s.T) / 2.0
        l_inv = inverse_factor(s)
        v = l_inv @ hm
        step = l_inv @ residual
    norms = float(np.vdot(v, v))  # the sum of V's squared row norms
    if not math.isfinite(norms):  # finite rows can overflow it: check exactly
        ensure_finite(v, "inverse Gram matrix")
    # np.dot hands V'step to BLAS for every row count; for one row it is an
    # outer product, where matmul's own loop for this layout took 10-15 us
    # against 2 us at H = 300.
    beta_new = np.dot(v.T, step)
    beta_new += model._beta
    beta_sq = float(np.vdot(beta_new, beta_new))
    if not math.isfinite(beta_sq):  # as for norms
        ensure_finite(beta_new, "output weights")
    return raw, v, norms, beta_new, beta_sq


def _recorded(projected, model: OselmModel, x: np.ndarray) -> bool:
    """Whether the record ``projected`` holds the rows ``x`` as the model's
    layer projects them. The layer is compared by identity, as it is
    read-only. The shape is compared because another shape can hold the
    same bytes, and a reused h skips hidden_output's feature-count check."""
    return (
        projected is not None
        and projected[0] is model.hidden
        and projected[1] == x.shape
        and projected[2] == x.tobytes()
    )


def predict_raw(model: OselmModel, x) -> np.ndarray:
    """Raw (unthresholded) output values: hidden activations times beta.

    On 1 to ``_RECORD_ROWS`` (64) rows the model keeps a record of the rows
    and their hidden output, valid until ``beta`` is written: the layer, the
    rows' shape, a private copy of their bytes, the hidden output and a
    private copy of the raw outputs. The ``update`` that learns the rows
    next then neither projects them nor multiplies them by beta again.
    Rows changed in place in between no longer match their copy and are
    projected again; assigning ``beta`` drops the record. Rows whose
    projection or raw outputs are not finite raise before they are
    recorded, so a record never holds NaN.

    A call on rows that match the record, through the same layer object,
    in the same shape and with equal bytes, keeps the record and returns a
    copy of its raw outputs with no projection: so a threshold calibration
    on the initial block reuses ``init_phase``'s record. Every other call
    drops the record: one that raises, and one on no rows or on more than
    64, such as a calibration on other rows or a test-set scoring, whose
    hidden output would stay alive until the next update. ``update`` always
    drops the record, and ``save_model`` never writes it.
    """
    projected, model._projected = model._projected, None
    x = as_matrix(x, "input")
    if _recorded(projected, model, x):
        model._projected = projected
        return projected[4].copy()  # the caller may write into what is returned
    del projected
    h = hidden_output(model.hidden, x)
    if model._beta_sq <= _BETA_LIMIT:
        raw = h @ model._beta  # finite: see _LOAD_LIMIT
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the check
            raw = ensure_finite(h @ model._beta, "raw outputs")
    if 1 <= len(x) <= _RECORD_ROWS:
        # raw is copied because the caller may write into what is returned.
        model._projected = (model.hidden, x.shape, x.tobytes(), h, raw.copy())
    return raw


# ---------------------------------------------------------------------------
# Serialization, format v2: a UTF-8 text header (the tag line, one "key value"
# line per _HEADER entry, the value as str() spells it, an "end" line), then
# weights, biases, gram_inv, beta and, with a normalizer, scale and offset as
# raw little-endian float64. The header counts fix every shape (_shapes), and
# raw floats round-trip bit for bit. One decoder, _decode, holds every rule a
# file must keep and builds the model through the constructors, which check
# the rest: load_model runs it on the file's bytes, and save_model on the
# bytes it is about to write, so it writes no file that load_model would
# reject.

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


def _shapes(fields: dict) -> list[tuple[int, ...]]:
    """The shapes of the arrays that follow the header, in file order."""
    dim, hidden, labels = fields["input_dim"], fields["hidden_count"], fields["label_count"]
    shapes = [(hidden, dim), (hidden,), (hidden, hidden), (hidden, labels)]
    if fields["normalizer"] == "affine":
        shapes += [(dim,), (dim,)]
    return shapes


def _decode(path, head: list[bytes], payload) -> tuple[OselmModel, Normalizer | None]:
    """The model and the normalizer, or None, of a model file whose header
    lines are ``head`` and whose arrays are the bytes ``payload`` (a
    bytes-like object whose len is its byte count). They are built by the
    ``HiddenLayer``, ``OselmModel`` and ``Normalizer`` constructors; on
    arrays the header's counts shape and that are finite, only one of
    their checks can fail: a ``gram_inv`` that is not exactly symmetric.
    The layer's arrays, ``gram_inv`` and the normalizer's arrays are
    read-only views of ``payload``. The first fault raises DataError
    naming ``path``."""
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
        if text != str(fields[key]):  # such as "+10", "0001", "1_0" or "0.00"
            raise DataError(f"{path}:{lineno}: {key} must be written {str(fields[key])!r}, "
                            f"got {text!r}")
    if lines[-1] != "end":
        raise DataError(f"{path}: missing end marker")
    shapes = _shapes(fields)
    sizes = [math.prod(shape) for shape in shapes]
    needed = 8 * sum(sizes)
    if len(payload) != needed:
        raise DataError(f"{path}: {len(payload)} bytes of arrays, the header needs {needed}")
    flat = np.frombuffer(payload, dtype="<f8")
    if not all_finite(flat):
        raise DataError(f"{path}: non-finite array value")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    weights, biases, gram_inv, beta, *norm = map(np.reshape, parts, shapes)
    layer = HiddenLayer(weights, biases, fields["activation"])
    try:
        model = OselmModel(layer, gram_inv, beta, fields["threshold"],
                           fields["samples_seen"], fields["blocks_seen"])
    except ValueError as exc:  # gram_inv is not exactly symmetric
        raise DataError(f"{path}: {exc}") from None
    return model, Normalizer(*norm) if norm else None


def save_model(path, model: OselmModel, normalizer: Normalizer | None = None) -> None:
    """Write the model (and the feature normalizer, if any) in format v2.

    The arrays are reshaped to the shapes the header's counts give, into
    one buffer, and the header lines and that buffer go through the whole
    of ``load_model``'s decoding, constructors included, before the file
    is opened. So whatever ``load_model`` would reject raises ValueError
    and writes nothing: an array of another size (numpy's ValueError),
    and, as DataError naming
    ``path``, a non-finite threshold or array entry, a ``gram_inv`` that
    is not exactly symmetric, a ``samples_seen`` or ``blocks_seen`` that
    is not an integer of at least 1, an unknown activation, or a header
    value with a newline in it.
    """
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
    head = "".join(f"{key} {fields[key]}\n" for key in _HEADER)
    head = f"{_FORMAT_TAG} {_FORMAT_VERSION}\n{head}end\n".encode()
    arrays = [model.hidden.weights, model.hidden.biases, model.gram_inv, model.beta]
    if normalizer is not None:
        arrays += [normalizer.scale, normalizer.offset]
    # One buffer of the arrays' bytes, decoded and then written as it is.
    payload = np.concatenate(
        [np.reshape(a, shape).ravel() for a, shape in zip(arrays, _shapes(fields))], dtype="<f8"
    ).view(np.uint8)
    # Cut the header where load_model's readline calls would. A value with a
    # newline in it shifts the lines after it, and the last piece, which also
    # holds what those calls would leave for the arrays, is then not "end".
    _decode(path, head.split(b"\n", len(_HEADER) + 1), payload)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)


def load_model(path) -> tuple[OselmModel, Normalizer | None]:
    """Read a model file written by ``save_model``; a file it would not
    write raises DataError naming ``path``. ``_decode`` builds the model and
    the normalizer through their constructors, so the layer's arrays,
    ``gram_inv`` and the normalizer's arrays are read-only views of the
    file's bytes, and beta a read-only copy."""
    with open(path, "rb") as fh:
        head = [fh.readline() for _ in range(len(_HEADER) + 2)]
        payload = fh.read()
    return _decode(path, head, payload)

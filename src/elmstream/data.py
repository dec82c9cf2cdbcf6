"""Dataset loading, normalization, splitting, and stream-block iteration.

Two on-disk formats are supported:

* Dense CSV: UTF-8, comma-separated, optional single header line (skipped;
  rows must match its width). Each data row holds D real feature fields
  followed by M label fields that must be literally ``0`` or ``1``. Blank
  lines are skipped, whitespace around a field is ignored, and LF, CRLF
  and lone CR all end a line. An error in a row names its ``path:line``.
* Sparse: one sample per line, ``<label-idx-list> <idx>:<val> ...`` with
  1-based indices, the label list comma-separated. Unlisted features and
  labels are zero. ``#`` starts a comment; blank lines are skipped. A line
  whose first token contains ``:`` has an empty label set.

Fold files (optional input to cross-validation) hold one line per fold of
space-separated 0-based test indices.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataError",
    "LabeledDataset",
    "Normalizer",
    "StreamPlan",
    "load_csv",
    "load_sparse",
    "fit_normalizer",
    "kfold",
    "stream_blocks",
    "load_fold_file",
]


class DataError(ValueError):
    """Malformed dataset or fold file, or an infeasible stream plan."""


@dataclass
class LabeledDataset:
    """Feature matrix plus binary label matrix, rows aligned."""

    features: np.ndarray  # N x D float64
    labels: np.ndarray  # N x M int8, entries 0/1

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise DataError("features and labels must both be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"features have {self.features.shape[0]} rows, "
                f"labels have {self.labels.shape[0]}"
            )

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]

    def subset(self, rows) -> "LabeledDataset":
        """Copy of the selected rows.

        Indexing with an array of row numbers or a boolean mask always copies.
        """
        idx = np.asarray(rows)
        if idx.size == 0 and idx.dtype != bool:
            idx = idx.astype(np.intp)  # np.asarray([]) is a float array
        return LabeledDataset(features=self.features[idx], labels=self.labels[idx])


def _finite_float(text: str, path: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}:{lineno}: cannot parse {what} {text!r}") from None
    if not np.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite {what} {text!r}")
    return value


def _read_text(path: str) -> str:
    """The text of a UTF-8 file, with CRLF and lone CR turned into LF.

    The file is decoded whole, so bytes that are not UTF-8 raise DataError
    naming the file wherever they sit and whatever the file's size.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _text_lines(path: str):
    """(line number, line) pairs of ``_read_text(path)``, split at LF alone."""
    return enumerate(io.StringIO(_read_text(path)), start=1)


def load_csv(path, label_count: int, has_header: bool = False) -> LabeledDataset:
    """Load a dense CSV dataset whose last ``label_count`` fields are labels.

    With ``has_header`` the first non-blank line is a header: it is
    skipped, and its field count is the width every data row must have.

    The file is parsed in bulk by one ``np.loadtxt`` call. It is read line
    by line only when the bulk parse declines: to load the few spellings
    it does not take (``1_0``, non-ASCII digits, padded labels) or to name
    the ``path:line`` of an error.
    """
    if label_count < 1:
        raise DataError(f"label_count must be >= 1, got {label_count}")
    path = str(path)
    ds = _csv_in_bulk(path, label_count, has_header)
    return ds if ds is not None else _csv_by_line(path, label_count, has_header)


def _csv_in_bulk(path: str, label_count: int, has_header: bool) -> LabeledDataset | None:
    """The dataset of a CSV whose every row is plainly valid, else None.

    Text that is not UTF-8 raises the DataError ``_csv_by_line`` would.
    Every other fault declines: no data rows, a header wider or narrower
    than the first row, a label field that is not literally ``,0`` or
    ``,1``, a field ``np.loadtxt`` cannot parse, a ragged row or a
    non-finite value all leave the verdict to ``_csv_by_line``. Every
    field ``np.loadtxt`` accepts, ``float`` reads to the same value once
    stripped.
    """
    text = _read_text(path)
    lines = [ln for ln in map(str.strip, text.split("\n")) if ln]
    if has_header:
        if len(lines) < 2 or lines[0].count(",") != lines[1].count(","):
            return None
        del lines[0]
    # A row ends in label_count pairs ",0" or ",1". The file's length
    # bounds the comma string, whatever label_count is asked for.
    if not lines or 2 * label_count > len(text):
        return None
    commas = "," * label_count
    start = -2 * label_count
    for ln in lines:
        if ln[start::2] != commas or ln[start + 1 :: 2].strip("01"):
            return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return LabeledDataset(
        features=np.ascontiguousarray(values[:, :-label_count]),
        labels=values[:, -label_count:].astype(np.int8),
    )


def _csv_by_line(path: str, label_count: int, has_header: bool) -> LabeledDataset:
    """Reference reader of ``load_csv``: validates line by line and raises
    DataError naming ``path:line`` at the first fault."""
    expected_fields = None
    feature_rows: list[list[float]] = []
    label_rows: list[list[int]] = []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if expected_fields is None:
            if len(fields) <= label_count:
                raise DataError(
                    f"{path}:{lineno}: {'header' if has_header else 'row'} has "
                    f"{len(fields)} fields, need more than {label_count}"
                )
            expected_fields = len(fields)
            if has_header:
                continue
        elif len(fields) != expected_fields:
            raise DataError(
                f"{path}:{lineno}: ragged row with {len(fields)} fields, "
                f"expected {expected_fields}"
            )
        feats = [
            _finite_float(f, path, lineno, "feature") for f in fields[:-label_count]
        ]
        labs = []
        for f in fields[-label_count:]:
            if f == "0":
                labs.append(0)
            elif f == "1":
                labs.append(1)
            else:
                raise DataError(f"{path}:{lineno}: label field {f!r} is not 0 or 1")
        feature_rows.append(feats)
        label_rows.append(labs)
    if not feature_rows:
        raise DataError(f"{path}: no data rows")
    return LabeledDataset(
        features=np.array(feature_rows, dtype=float),
        labels=np.array(label_rows, dtype=np.int8),
    )


def _index(text: str, count: int, seen: set, what: str, path: str, lineno: int) -> int:
    """The 0-based position of the 1-based ``what`` index ``text``, which
    must lie in 1..count and not be in ``seen``; it is added to ``seen``."""
    try:
        idx = int(text)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad {what} index {text!r}") from None
    if not 1 <= idx <= count:
        raise DataError(f"{path}:{lineno}: {what} index {idx} out of range 1..{count}")
    if idx in seen:
        raise DataError(f"{path}:{lineno}: duplicate {what} index {idx}")
    seen.add(idx)
    return idx - 1


def load_sparse(path, feature_count: int, label_count: int) -> LabeledDataset:
    """Load a sparse ``<labels> <idx>:<val>`` dataset with known dimensions."""
    if feature_count < 1 or label_count < 1:
        raise DataError("feature_count and label_count must both be >= 1")
    path = str(path)
    feature_rows: list[np.ndarray] = []
    label_rows: list[np.ndarray] = []
    for lineno, line in _text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        feats = np.zeros(feature_count, dtype=float)
        labs = np.zeros(label_count, dtype=np.int8)
        start = 0
        if ":" not in tokens[0]:
            start = 1
            seen = set()
            for part in tokens[0].split(","):
                labs[_index(part, label_count, seen, "label", path, lineno)] = 1
        seen = set()
        for token in tokens[start:]:
            idx_text, sep, val_text = token.partition(":")
            if not sep:
                raise DataError(
                    f"{path}:{lineno}: expected index:value, got {token!r}"
                )
            col = _index(idx_text, feature_count, seen, "feature", path, lineno)
            feats[col] = _finite_float(val_text, path, lineno, "feature value")
        feature_rows.append(feats)
        label_rows.append(labs)
    if not feature_rows:
        raise DataError(f"{path}: no data rows")
    return LabeledDataset(
        features=np.vstack(feature_rows), labels=np.vstack(label_rows)
    )


@dataclass(frozen=True)
class Normalizer:
    """Frozen per-feature affine map x -> x * scale + offset."""

    scale: np.ndarray
    offset: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.scale.size:
            raise DataError(
                f"normalizer fitted on {self.scale.size} features, input has {x.shape[-1]}"
            )
        out = x * self.scale
        out += self.offset
        return out


def fit_normalizer(ds: LabeledDataset) -> Normalizer:
    """Fit the map sending each feature's observed [min, max] to [-1, 1].

    Constant features map to 0. Values outside the fitted range pass
    through the affine map unchanged (no clamping), so they may land
    outside [-1, 1].
    """
    x = ds.features
    if x.size == 0:
        raise DataError("cannot fit a normalizer on an empty dataset")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    constant = span == 0
    safe_span = np.where(constant, 1.0, span)
    scale = np.where(constant, 0.0, 2.0 / safe_span)
    offset = np.where(constant, 0.0, -(hi + lo) / safe_span)
    return Normalizer(scale=scale, offset=offset)


def _train_test(test_idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, test_idx): train is every row of range(n) not in test."""
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def kfold(ds: LabeledDataset, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded random k-fold partition as (train_idx, test_idx) pairs.

    Test folds partition the row range with sizes differing by at most 1.
    """
    n = ds.n_samples
    if not 2 <= k <= n:
        raise DataError(f"k must be in 2..{n}, got {k}")
    perm = np.random.default_rng(seed).permutation(n)
    return [_train_test(np.sort(part), n) for part in np.array_split(perm, k)]


@dataclass(frozen=True)
class StreamPlan:
    """How a dataset is cut into an initial block plus stream blocks."""

    init_block_size: int
    block_size: int
    shuffle_seed: int | None = None


def stream_blocks(ds: LabeledDataset, plan: StreamPlan) -> list[LabeledDataset]:
    """Cut the dataset into the initial block followed by stream blocks.

    Stream blocks have ``plan.block_size`` rows except a final remainder
    block of at least one row. When the initial block covers the whole
    dataset the result is that single block. Concatenating the blocks in
    order reproduces the dataset, seeded-shuffled when ``shuffle_seed``
    is set.

    The blocks are row views, not copies, of ``ds``'s arrays or, with
    ``shuffle_seed``, of one shuffled copy of them: writing to a block
    writes to that array.
    """
    n = ds.n_samples
    n0, b = plan.init_block_size, plan.block_size
    if n0 < 1 or b < 1:
        raise DataError(f"init_block_size and block_size must be >= 1, got {n0}, {b}")
    if n0 != n and n0 + b > n:
        raise DataError(
            f"infeasible plan: init block {n0} plus block {b} exceeds {n} rows"
        )
    if plan.shuffle_seed is not None:
        ds = ds.subset(np.random.default_rng(plan.shuffle_seed).permutation(n))
    x, y = ds.features, ds.labels
    bounds = [0, *range(n0, n, b), n]
    return [LabeledDataset(x[a:z], y[a:z]) for a, z in zip(bounds, bounds[1:])]


def load_fold_file(path, n_samples: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read explicit folds: one line of space-separated 0-based test indices each."""
    path = str(path)
    folds = []
    seen = np.zeros(n_samples, dtype=bool)
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            idx = np.array([int(tok) for tok in line.split()], dtype=np.int64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: fold indices must be integers") from None
        if idx.min() < 0 or idx.max() >= n_samples:
            raise DataError(
                f"{path}:{lineno}: fold index out of range 0..{n_samples - 1}"
            )
        idx.sort()
        repeated = idx[1:][np.diff(idx) == 0]
        if repeated.size:
            raise DataError(f"{path}:{lineno}: index {repeated[0]} repeated within the fold")
        if seen[idx].any():
            raise DataError(f"{path}:{lineno}: index appears in more than one fold")
        seen[idx] = True
        folds.append(idx)
    if len(folds) < 2:
        raise DataError(f"{path}: need at least two folds")
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise DataError(f"{path}: index {missing} appears in no fold")
    return [_train_test(test_idx, n_samples) for test_idx in folds]

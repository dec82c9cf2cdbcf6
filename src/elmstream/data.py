"""Dataset loading, normalization, splitting, and stream-block iteration.

Every text input, ``cli``'s config file included, is read by one line
rule: the file is UTF-8, LF, CRLF and lone CR all end a line, whitespace
around a line is ignored, and blank or whitespace-only lines are
skipped. In sparse and config files ``#`` starts a comment. An error in
a line names its ``path:line``.

* Dense CSV: comma-separated, with an optional single header line that
  is skipped. The first non-blank line, the header or else the first
  row, fixes the field count: it must be more than M, or DataError names
  that line, and every data row must have it. Each data row holds D real
  feature fields followed by M label fields that must be literally ``0``
  or ``1``; whitespace around a field is ignored.
* Sparse: one sample per line, ``<label-idx-list> <idx>:<val> ...`` with
  1-based indices, the label list comma-separated. Unlisted features and
  labels are zero. A line whose first token contains ``:`` has an empty
  label set.
* Fold file (optional input to cross-validation): one line per fold of
  space-separated 0-based test indices.

Every reader checks that the whole file is UTF-8 before it reads the
first line, then reads it line by line; no reader holds the file's text.
As the file is read twice, it must be a regular file: a pipe raises
DataError naming it before anything is read from it.
Both formats are parsed in chunks of rows, each into one feature array
and one label array: ``load_csv`` and ``load_sparse`` join them into one
dataset, ``stream_csv`` and ``stream_sparse`` hand them out as the blocks
of a stream, so a fault in a later row raises when its block is read.
``cli``'s ``train`` and ``bench`` stream; ``eval``, ``cv`` and a shuffled
stream need every row first, so they load whole files. ``stream_blocks``
cuts a loaded dataset, in its row order, into a plan's blocks as they
are read: it holds the dataset's arrays and the plan, nothing per block,
and each read of a block gives a new dataset of row views of those
arrays. Every dataset, a block included, is made by the
``LabeledDataset`` constructor, which checks its arrays' shapes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .numerics import all_finite

__all__ = [
    "DataError",
    "LabeledDataset",
    "Normalizer",
    "StreamPlan",
    "load_csv",
    "stream_csv",
    "load_sparse",
    "stream_sparse",
    "fit_normalizer",
    "kfold",
    "stream_blocks",
    "load_fold_file",
]


class DataError(ValueError):
    """Malformed dataset or fold file, or an infeasible stream plan."""


@dataclass(eq=False)
class LabeledDataset:
    """Feature matrix plus binary label matrix, rows aligned. Datasets
    compare and hash by identity: == would compare their arrays."""

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


_CHECK_CHARS = 1 << 16  # characters per read of the UTF-8 check
_CHUNK_ROWS = 1024  # rows per chunk of load_csv and load_sparse


def _text_lines(path: str, comment: str | None = None) -> Iterator[tuple[int, str]]:
    """(line number, text) of each non-blank line of the UTF-8 file ``path``,
    read one at a time: the text is the line cut at the first ``comment``
    character, when given, and stripped. LF, CRLF and lone CR end a line.

    The whole file is decoded first, 64 K characters at a time, so bytes
    that are not UTF-8 raise DataError naming the file before the first
    line is returned, wherever they sit and whatever the file's size.
    A file that cannot be read twice, such as a pipe, raises DataError
    before it is read.
    """
    with open(path, encoding="utf-8") as fh:
        if not fh.seekable():
            raise DataError(f"{path}: cannot be read twice, a regular file is needed")
        try:
            while fh.read(_CHECK_CHARS):
                pass
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        fh.seek(0)
        for lineno, line in enumerate(fh, start=1):
            if comment is not None:
                line = line.split(comment, 1)[0]
            line = line.strip()
            if line:
                yield lineno, line


def load_csv(path, label_count: int, has_header: bool = False) -> LabeledDataset:
    """Load a dense CSV dataset whose last ``label_count`` fields are labels.

    With ``has_header`` the first non-blank line is a header, which is
    skipped; else it is the first row. Its field count is the width every
    data row must have.
    """
    return _joined(_csv_chunks, str(path), label_count, has_header)


def load_sparse(path, feature_count: int, label_count: int) -> LabeledDataset:
    """Load a sparse ``<labels> <idx>:<val>`` dataset with known dimensions."""
    return _joined(_sparse_chunks, str(path), feature_count, label_count)


def _joined(chunks, *args) -> LabeledDataset:
    chunks = list(chunks(*args, itertools.repeat(_CHUNK_ROWS)))
    if len(chunks) == 1:
        return chunks[0]
    return LabeledDataset(np.concatenate([c.features for c in chunks]),
                          np.concatenate([c.labels for c in chunks]))


def stream_csv(path, label_count: int, plan: StreamPlan,
               has_header: bool = False) -> Iterator[LabeledDataset]:
    """The blocks of ``stream_blocks(load_csv(path, label_count, has_header),
    plan)``, read from the file one block at a time.

    The reader holds the block being learned and, until the initial
    block is passed on, the first stream block: it is read ahead, so an
    infeasible plan raises DataError before the first block is returned.
    A fault in a later row raises DataError when its block is read.
    """
    return _stream(plan, _csv_chunks, str(path), label_count, has_header)


def stream_sparse(path, feature_count: int, label_count: int,
                  plan: StreamPlan) -> Iterator[LabeledDataset]:
    """``stream_csv`` for ``load_sparse(path, feature_count, label_count)``."""
    return _stream(plan, _sparse_chunks, str(path), feature_count, label_count)


def _stream(plan: StreamPlan, chunks, *args) -> Iterator[LabeledDataset]:
    """The blocks of ``plan``, read by ``chunks(*args, sizes)``."""
    sizes = itertools.chain([plan.init_block_size], itertools.repeat(plan.block_size))
    blocks = chunks(*args, sizes)
    ahead = list(itertools.islice(blocks, 2))
    _check_feasible(plan, sum(b.n_samples for b in ahead))
    while ahead:
        yield ahead.pop(0)
    yield from blocks


def _chunks(path: str, rows: Iterator[tuple[int, str]], sizes: Iterator[int],
            parse) -> Iterator[LabeledDataset]:
    """Consecutive chunks of ``rows``, the (line number, text) rows of the
    file ``path``, each ``parse(chunk)`` of as many rows as the next of
    ``sizes``; the last may be short. No rows at all raise DataError."""
    chunk = list(itertools.islice(rows, next(sizes)))
    if not chunk:
        raise DataError(f"{path}: no data rows")
    while chunk:
        yield parse(chunk)
        chunk = list(itertools.islice(rows, next(sizes)))


def _csv_chunks(path: str, label_count: int, has_header: bool,
                sizes: Iterator[int]) -> Iterator[LabeledDataset]:
    """The ``_chunks`` of a CSV file, each parsed in bulk by one
    ``np.loadtxt`` call. A chunk is read line by line only when the bulk
    parse declines: to load the few spellings it does not take (``1_0``,
    non-ASCII digits, padded labels) or to name the ``path:line`` of an
    error.

    The first line, the header with ``has_header`` and else the first
    row, is read once here: its field count, which must exceed
    ``label_count``, is the width every row is parsed at.
    """
    if label_count < 1:
        raise DataError(f"label_count must be >= 1, got {label_count}")
    rows = _text_lines(path)
    first = next(rows, None)
    if first is not None:  # else _chunks raises before a chunk is parsed
        lineno, line = first
        width = line.count(",") + 1
        if width <= label_count:
            raise DataError(
                f"{path}:{lineno}: {'header' if has_header else 'row'} has "
                f"{width} fields, need more than {label_count}"
            )
        if not has_header:
            rows = itertools.chain([first], rows)

    def parse(chunk):
        ds = _csv_in_bulk([line for _, line in chunk], label_count, width)
        return ds if ds is not None else _csv_by_line(chunk, path, label_count, width)

    yield from _chunks(path, rows, sizes, parse)


def _csv_in_bulk(lines: list[str], label_count: int, width: int) -> LabeledDataset | None:
    """The dataset of stripped, non-blank CSV ``lines`` whose every row is
    plainly valid and ``width`` fields wide, ``width`` more than
    ``label_count``; else None.

    Every fault declines: a label field that is not literally ``,0`` or
    ``,1``, a field ``np.loadtxt`` cannot parse, a row of another width
    or a non-finite value all leave the verdict to ``_csv_by_line``.
    Every field ``np.loadtxt`` accepts, ``float`` reads to the same value
    once stripped.
    """
    # A row ends in label_count pairs ",0" or ",1". As label_count < width,
    # the comma string is shorter than the line that fixed the width.
    commas = "," * label_count
    start = -2 * label_count
    for ln in lines:
        if ln[start::2] != commas or ln[start + 1 :: 2].strip("01"):
            return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != width or not all_finite(values):
        return None
    return LabeledDataset(
        features=np.ascontiguousarray(values[:, :-label_count]),
        labels=values[:, -label_count:].astype(np.int8),
    )


def _csv_by_line(rows: Iterable[tuple[int, str]], path: str, label_count: int,
                 width: int) -> LabeledDataset:
    """Reference reader of ``load_csv``: validates the CSV ``rows`` of
    ``path``, (line number, stripped non-blank line) pairs, one by one,
    against the field count ``width`` the first line fixed, and raises
    DataError naming ``path:line`` at the first fault.
    """
    feature_rows: list[list[float]] = []
    label_rows: list[list[bool]] = []
    for lineno, line in rows:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != width:
            raise DataError(
                f"{path}:{lineno}: ragged row with {len(fields)} fields, expected {width}"
            )
        feats = [
            _finite_float(f, path, lineno, "feature") for f in fields[:-label_count]
        ]
        labs = fields[-label_count:]
        for f in labs:
            if f not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: label field {f!r} is not 0 or 1")
        feature_rows.append(feats)
        label_rows.append([f == "1" for f in labs])
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


def _sparse_chunks(path: str, feature_count: int, label_count: int,
                   sizes: Iterator[int]) -> Iterator[LabeledDataset]:
    """The ``_chunks`` of a sparse file, each read line by line into one
    zeroed feature array and one label array."""
    if feature_count < 1 or label_count < 1:
        raise DataError("feature_count and label_count must both be >= 1")

    def parse(rows):
        features = np.zeros((len(rows), feature_count))
        labels = np.zeros((len(rows), label_count), dtype=np.int8)
        for r, (lineno, line) in enumerate(rows):
            tokens = line.split()
            if ":" not in tokens[0]:
                seen = set()
                for part in tokens.pop(0).split(","):
                    labels[r, _index(part, label_count, seen, "label", path, lineno)] = 1
            seen = set()
            for token in tokens:
                idx_text, sep, val_text = token.partition(":")
                if not sep:
                    raise DataError(f"{path}:{lineno}: expected index:value, got {token!r}")
                col = _index(idx_text, feature_count, seen, "feature", path, lineno)
                features[r, col] = _finite_float(val_text, path, lineno, "feature value")
        return LabeledDataset(features=features, labels=labels)

    return _chunks(path, _text_lines(path, "#"), sizes, parse)


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Frozen per-feature affine map x -> x * scale + offset. Construction
    raises DataError unless scale and offset are 1-D arrays of one size, so
    neither is broadcast over the features, and makes the two arrays
    read-only, so a write into them in place raises numpy's ValueError.
    Copies and unpickling construct the normalizer again. Normalizers
    compare and hash by identity, as datasets do."""

    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        if self.scale.ndim != 1 or self.scale.shape != self.offset.shape:
            raise DataError(
                f"scale and offset must be 1-D arrays of one size, got {self.scale.shape} "
                f"and {self.offset.shape}"
            )
        self.scale.setflags(write=False)
        self.offset.setflags(write=False)

    def __reduce__(self):
        return Normalizer, (self.scale, self.offset)

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

    Constant features map to 0, and so does a feature whose half-span is
    too small to invert, below about 5.6e-309: no finite affine map sends
    it to [-1, 1]. Values outside the fitted range pass through the affine
    map unchanged (no clamping), so they may land outside [-1, 1].
    """
    x = ds.features
    if x.size == 0:
        raise DataError("cannot fit a normalizer on an empty dataset")
    # Halved first: hi - lo and hi + lo may overflow, their halves cannot.
    lo = x.min(axis=0) / 2
    hi = x.max(axis=0) / 2
    half = hi - lo
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # masked below
        inverse = 1.0 / half
        offset = -(hi + lo) / half
    constant = np.isinf(inverse)  # a zero half-span, or one whose inverse overflows
    scale = np.where(constant, 0.0, inverse)
    offset = np.where(constant, 0.0, offset)
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
    """How a dataset is cut into an initial block plus stream blocks: the
    two sizes and nothing else. Rows are cut in the order they come in;
    ``cli`` shuffles a dataset (--shuffle-seed) before it is cut."""

    init_block_size: int
    block_size: int

    def __post_init__(self):
        n0, b = self.init_block_size, self.block_size
        if n0 < 1 or b < 1:
            raise DataError(f"init_block_size and block_size must be >= 1, got {n0}, {b}")


def _check_feasible(plan: StreamPlan, n: int) -> None:
    """Raise DataError unless ``plan`` can cut ``n`` rows: after the initial
    block comes at least one full stream block, unless the initial block
    is every row.

    A reader that stops after its first two blocks passes their row
    count: it is ``n`` whenever the plan is infeasible.
    """
    n0, b = plan.init_block_size, plan.block_size
    if n0 != n and n0 + b > n:
        raise DataError(f"infeasible plan: init block {n0} plus block {b} exceeds {n} rows")


def stream_blocks(ds: LabeledDataset, plan: StreamPlan) -> Sequence[LabeledDataset]:
    """Cut the dataset into the initial block followed by stream blocks.

    Stream blocks have ``plan.block_size`` rows except a final remainder
    block of at least one row. When the initial block covers the whole
    dataset the result is that single block. Concatenating the blocks in
    order reproduces the dataset: they are only cut, never shuffled. The
    plan's feasibility is checked here.

    The result is a read-only sequence that holds the two arrays, the
    plan's sizes and the range of block numbers it covers, and nothing
    per block. A block is cut when it is read, and an iteration reads
    each block as an index does: each read gives a new LabeledDataset
    whose arrays are row views, not copies, of ``ds``'s arrays, so writing
    to a block writes to ``ds``. A slice is a sequence of the same kind. As
    datasets compare by identity, a block read earlier is not ``in`` the
    sequence, which cuts a new one at each read.
    """
    n = ds.n_samples
    _check_feasible(plan, n)
    n0, b = plan.init_block_size, plan.block_size
    return _Blocks(ds.features, ds.labels, n0, b, range(1 + -(-(n - n0) // b)))


class _Blocks(Sequence):
    """The blocks numbered by ``numbers`` of rows cut as an initial block of
    ``n0`` rows, then blocks of ``b`` and a shorter last one: block 0 is
    rows [0, n0), block k > 0 rows [n0 + (k - 1) b, n0 + k b)."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, n0: int, b: int,
                 numbers: range):
        self._x, self._y, self._n0, self._b, self._numbers = features, labels, n0, b, numbers

    def __len__(self) -> int:
        return len(self._numbers)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Blocks(self._x, self._y, self._n0, self._b, self._numbers[index])
        return self._block(self._numbers[index])

    def _block(self, k: int) -> LabeledDataset:
        start = 0 if k == 0 else self._n0 + (k - 1) * self._b
        stop = self._n0 + k * self._b
        return LabeledDataset(self._x[start:stop], self._y[start:stop])

    def __iter__(self) -> Iterator[LabeledDataset]:
        return map(self._block, self._numbers)


def load_fold_file(path, n_samples: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read explicit folds: one line of space-separated 0-based test indices each."""
    path = str(path)
    folds = []
    seen = np.zeros(n_samples, dtype=bool)
    for lineno, line in _text_lines(path):
        try:
            ints = sorted(int(tok) for tok in line.split())
        except ValueError:
            raise DataError(f"{path}:{lineno}: fold indices must be integers") from None
        if ints[0] < 0 or ints[-1] >= n_samples:  # before an int64 could overflow
            raise DataError(
                f"{path}:{lineno}: fold index out of range 0..{n_samples - 1}"
            )
        idx = np.array(ints, dtype=np.int64)
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

import argparse
import os
import pathlib

import numpy as np
import pytest

from elmstream import cli
from elmstream.data import DataError, LabeledDataset, load_csv

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"

# Real benchmark datasets are looked up here when available; see README.
DATASETS_DIR = pathlib.Path(
    os.environ.get("ELMSTREAM_DATASETS", pathlib.Path(__file__).resolve().parents[1] / "datasets")
)


@pytest.fixture(scope="session")
def yeast_excerpt() -> LabeledDataset:
    return load_csv(DATA_DIR / "yeast_shaped_50.csv", label_count=14)


@pytest.fixture(scope="session")
def scene_excerpt() -> LabeledDataset:
    return load_csv(DATA_DIR / "scene_shaped_50.csv", label_count=6)


def synthetic_stream(n, d, m, seed, teacher_hidden=25, flip=0.0):
    """Learnable multi-label data: labels thresholded from a random teacher
    network, optionally with a fraction of label bits flipped."""
    from elmstream.model import hidden_output, init_hidden

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d))
    teacher = init_hidden(d, teacher_hidden, "sigmoid", seed + 1)
    w = rng.normal(size=(teacher_hidden, m))
    raw = hidden_output(teacher, x) @ w
    labels = (raw > np.median(raw, axis=0)).astype(np.int8)
    if flip > 0.0:
        mask = rng.random(labels.shape) < flip
        labels = np.where(mask, 1 - labels, labels).astype(np.int8)
    return LabeledDataset(features=x, labels=labels)


@pytest.fixture
def small_learnable():
    return synthetic_stream(n=240, d=8, m=3, seed=11)


@pytest.fixture
def projections(monkeypatch):
    """The row count of every hidden_output call that elmstream.model makes."""
    from elmstream.model import hidden_output

    rows = []

    def counted(layer, x):
        rows.append(np.shape(x)[0])
        return hidden_output(layer, x)

    monkeypatch.setattr("elmstream.model.hidden_output", counted)
    return rows


def batch_beta(h, y, ridge=0.0):
    """Batch oracle: output weights solving (H'H + ridge I) beta = H'Y,
    computed with numpy alone, independently of the library's solve."""
    h = np.asarray(h, dtype=float)
    return np.linalg.solve(h.T @ h + ridge * np.eye(h.shape[1]), h.T @ y)


def write_csv(path, ds: LabeledDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(ds.n_samples):
            feats = ",".join(repr(float(v)) for v in ds.features[i])
            labs = ",".join(str(int(v)) for v in ds.labels[i])
            fh.write(f"{feats},{labs}\n")


def save_sparse(path, ds: LabeledDataset) -> None:
    """Write a dataset in the sparse format; exact round-trip with load_sparse.

    A row with no labels and no nonzero features has no sparse encoding
    and raises DataError.
    """
    lines = []
    for i in range(ds.n_samples):
        label_idx = np.flatnonzero(ds.labels[i]) + 1
        feat_idx = np.flatnonzero(ds.features[i]) + 1
        if label_idx.size == 0 and feat_idx.size == 0:
            raise DataError(
                f"row {i} has no labels and no nonzero features; "
                "not representable in sparse format"
            )
        parts = []
        if label_idx.size:
            parts.append(",".join(str(j) for j in label_idx))
        parts += [f"{j}:{float(ds.features[i, j - 1])!r}" for j in feat_idx]
        lines.append(" ".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def command_flags() -> dict[str, list[str]]:
    """Each CLI subcommand's flags, in --help order, without --help."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
        for command, p in sub.choices.items()
    }

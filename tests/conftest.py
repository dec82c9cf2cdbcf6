import os
import pathlib

import numpy as np
import pytest

from elmstream.data import LabeledDataset, load_csv

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

"""Seeded synthetic inputs for the benchmark workloads.

The recipe is that of ``tests/conftest.py::synthetic_stream``: features
uniform on [-1, 1], and each label set where a random sigmoid teacher
network's output exceeds that label's median. It is written out here with
numpy alone, so the inputs stay the same when the program under test
changes. Unlike the test helper, the teacher is the same for every seed:
the seed draws the rows, so the task's difficulty, and with it the hamming
loss, does not swing from seed to seed.
"""

from __future__ import annotations

import numpy as np

TEACHER_HIDDEN = 25
TEACHER_SEED = 2016


def synthetic_stream(n: int, d: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Return an ``n x d`` float64 feature matrix and an ``n x m`` int8 label matrix."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))
    teacher = np.random.default_rng(TEACHER_SEED)
    weights = teacher.uniform(-1.0, 1.0, size=(TEACHER_HIDDEN, d))
    biases = teacher.uniform(0.0, 1.0, size=TEACHER_HIDDEN)
    out = teacher.normal(size=(TEACHER_HIDDEN, m))
    raw = (1.0 / (1.0 + np.exp(-(x @ weights.T + biases)))) @ out
    labels = (raw > np.median(raw, axis=0)).astype(np.int8)
    return x, labels


def write_csv(path, x: np.ndarray, labels: np.ndarray) -> None:
    """Write rows as ``features...,labels...`` with round-trip float text."""
    with open(path, "w", encoding="utf-8") as fh:
        for feats, labs in zip(x, labels):
            fh.write(",".join(repr(float(v)) for v in feats))
            fh.write("," + ",".join("1" if v else "0" for v in labs) + "\n")

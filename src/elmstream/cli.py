"""Command-line surface: train, eval, cv, and bench.

``train``, ``cv`` and ``bench`` share one timed streaming loop, so
``bench`` times exactly the work ``train`` does, threshold calibration
and ``--recalibrate`` included.

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical error. Flags
override values from an optional flat key-value config file (--config),
whose keys, types and defaults are the RunConfig fields.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from .data import (
    DataError,
    LabeledDataset,
    Normalizer,
    StreamPlan,
    fit_normalizer,
    kfold,
    load_csv,
    load_fold_file,
    load_sparse,
    stream_blocks,
)
from .labels import calibrate_threshold, decode, to_bipolar
from .metrics import MetricsReport, compute_report, format_report, report_kv_lines
from .model import (
    ACTIVATIONS,
    OselmModel,
    init_hidden,
    init_phase,
    load_model,
    predict_raw,
    save_model,
    update,
)
from .numerics import NumericalError

__all__ = ["RunConfig", "main", "run_train", "run_eval", "run_cv"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_METRIC_FIELDS = [f.name for f in fields(MetricsReport)]


class UsageError(Exception):
    """Bad flags, bad config file, or missing required options."""


@dataclass
class RunConfig:
    """Merged view of command-line flags and the optional config file."""

    command: str = ""
    data: str | None = None
    model: str | None = None
    out: str | None = None
    format: str = "csv"
    header: bool = False
    labels: int | None = None
    features: int | None = None
    hidden: int | None = None
    activation: str = "sigmoid"
    seed: int = 0
    ridge: float = 0.0
    init_block: int | None = None
    block: int | None = None
    shuffle_seed: int | None = None
    folds: int | None = None
    fold_file: str | None = None
    recalibrate: bool = False
    arrival_interval: float | None = None


# Config key -> value type, read off the RunConfig annotations
# (``int | None`` -> int); "command" comes from the subcommand, not a key.
_FIELD_TYPES = {
    name: next(t for t in (get_args(hint) or (hint,)) if t is not type(None))
    for name, hint in get_type_hints(RunConfig).items()
    if name != "command"
}

_FORMATS = ("csv", "sparse")

# Bounds a value must meet whatever the data: (keys, test, requirement).
# Flags and config-file values both pass through this one table.
# Limits that depend on the data, such as an init block longer than the
# file, are data errors raised where the data is read.
_BOUNDS = [
    (("format",), lambda v: v in _FORMATS, " or ".join(_FORMATS)),
    (("activation",), lambda v: v in ACTIVATIONS, f"one of {sorted(ACTIVATIONS)}"),
    (("labels", "features", "hidden", "init_block", "block"), lambda v: v >= 1, ">= 1"),
    (("folds",), lambda v: v >= 2, ">= 2"),
    (("seed", "shuffle_seed"), lambda v: v >= 0, ">= 0"),
    (("ridge",), lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0"),
    (("arrival_interval",), lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
]


# ---------------------------------------------------------------------------
# Argument parsing and config merging


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key-value config file; flags override it")
    p.add_argument("--data", help="dataset path")
    p.add_argument("--format", metavar="|".join(_FORMATS), help="dataset format")
    p.add_argument("--header", action="store_true", default=None,
                   help="CSV file starts with a header line")
    p.add_argument("--labels", type=int, metavar="M", help="number of labels")
    p.add_argument("--features", type=int, metavar="D",
                   help="number of features (required for sparse format)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--out", help="output path")


def _add_training(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", type=int, metavar="N", help="hidden neuron count (required)")
    p.add_argument("--activation", metavar="|".join(sorted(ACTIVATIONS)),
                   help="hidden activation")
    p.add_argument("--ridge", type=float, help="ridge term for the initial solve (default 0)")
    p.add_argument("--init-block", dest="init_block", type=int, metavar="N0",
                   help="rows in the initialization block")
    p.add_argument("--block", type=int, metavar="B", help="rows per stream block")
    p.add_argument("--shuffle-seed", dest="shuffle_seed", type=int,
                   help="shuffle rows with this seed before streaming")
    p.add_argument("--recalibrate", action="store_true", default=None,
                   help="recalibrate the threshold after every stream block")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="elmstream",
        description="Online sequential ELM for multi-label data streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train on a stream and write a model file")
    _add_common(p)
    _add_training(p)

    p = sub.add_parser("eval", help="evaluate a trained model on a dataset")
    _add_common(p)
    p.add_argument("--model", help="model file written by train")

    p = sub.add_parser("cv", help="k-fold cross-validation on one dataset")
    _add_common(p)
    _add_training(p)
    p.add_argument("--folds", type=int, metavar="K", help="number of folds")
    p.add_argument("--fold-file", dest="fold_file",
                   help="explicit folds: one line of 0-based test indices per fold")

    p = sub.add_parser("bench", help="time the training stream block by block")
    _add_common(p)
    _add_training(p)
    p.add_argument("--arrival-interval", dest="arrival_interval", type=float,
                   metavar="SECONDS", help="assert real-time feasibility against "
                   "this per-block arrival interval")
    return parser


def _coerce(key: str, text: str):
    kind = _FIELD_TYPES[key]
    if kind is bool:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {key!r}: cannot parse boolean {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"config key {key!r}: cannot parse {text!r} as {kind.__name__}") from None


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise UsageError(f"{path}:{lineno}: expected 'key value'")
                key, text = parts
                if key not in _FIELD_TYPES:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _coerce(key, text.strip())
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: config file is not UTF-8 text ({exc.reason})") from None
    return values


def _merge_config(ns: argparse.Namespace) -> RunConfig:
    file_values = _read_config_file(ns.config) if getattr(ns, "config", None) else {}
    flag_values = {
        name: value for name in _FIELD_TYPES
        if (value := getattr(ns, name, None)) is not None
    }
    cfg = RunConfig(command=ns.command, **{**file_values, **flag_values})
    for names, ok, requirement in _BOUNDS:
        for name in names:
            value = getattr(cfg, name)
            if value is not None and not ok(value):
                raise UsageError(f"{_flag(name)} must be {requirement}, got {value!r}")
    return cfg


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"{_flag(name)} is required for '{cfg.command}'")


def _load_dataset(cfg: RunConfig, path: str) -> LabeledDataset:
    _require(cfg, "labels")
    if cfg.format == "sparse":
        _require(cfg, "features")
        return load_sparse(path, cfg.features, cfg.labels)
    return load_csv(path, cfg.labels, has_header=cfg.header)


def _write_kv(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Core runs (importable; the cmd_* wrappers only print)


@dataclass
class TrainOutcome:
    """A trained model and its timings, one timer per block."""

    model: OselmModel
    normalizer: Normalizer
    block_rows: list[int]
    block_times: list[float]

    @property
    def train_time(self) -> float:
        return sum(self.block_times)

    @property
    def blocks(self) -> int:
        return len(self.block_times)

    @property
    def avg_block_time(self) -> float:
        return self.train_time / self.blocks

    @property
    def max_block_time(self) -> float:
        return max(self.block_times)


@dataclass
class CvOutcome:
    reports: list[MetricsReport]

    def mean(self, name: str) -> float:
        return float(np.mean([getattr(r, name) for r in self.reports]))

    def std(self, name: str) -> float:
        return float(np.std([getattr(r, name) for r in self.reports], ddof=1))


def _train_streaming(
    ds: LabeledDataset, cfg: RunConfig, layer_seed: int, norm: Normalizer | None = None
) -> TrainOutcome:
    """Shared training loop: stream blocks, init, RLS updates, calibration.

    The normalizer defaults to one fit on the initial block (streaming
    contract); cross-validation passes one fit on the whole training fold.
    Each block is prepared just before its timer starts, so the reported
    time covers model work only. Block 0 is the initial solve plus
    calibration; each later block is one update, plus recalibration with
    --recalibrate.
    """
    _require(cfg, "hidden", "init_block", "block")
    plan = StreamPlan(cfg.init_block, cfg.block, cfg.shuffle_seed)
    blocks = stream_blocks(ds, plan)
    if norm is None:
        norm = fit_normalizer(blocks[0])
    layer = init_hidden(ds.n_features, cfg.hidden, cfg.activation, layer_seed)
    block_times = []
    for i, block in enumerate(blocks):
        xb, yb = norm.transform(block.features), to_bipolar(block.labels)
        block_start = time.perf_counter()
        if i == 0:
            model = init_phase(layer, xb, yb, cfg.ridge)
        else:
            update(model, xb, yb)
        if i == 0 or cfg.recalibrate:
            model.threshold = calibrate_threshold(predict_raw(model, xb), block.labels).threshold
        block_times.append(time.perf_counter() - block_start)
    return TrainOutcome(model, norm, [b.n_samples for b in blocks], block_times)


def _evaluate(
    model: OselmModel,
    norm: Normalizer | None,
    ds: LabeledDataset,
    train_time: float = 0.0,
) -> MetricsReport:
    for name, have, want in (
        ("features", ds.n_features, model.hidden.input_dim),
        ("labels", ds.n_labels, model.label_count),
    ):
        if have != want:
            raise DataError(f"dataset has {have} {name}, model expects {want}")
    x = norm.transform(ds.features) if norm is not None else ds.features
    start = time.perf_counter()
    pred = decode(predict_raw(model, x), model.threshold)
    test_time = time.perf_counter() - start
    return compute_report(pred, ds.labels, train_time=train_time, test_time=test_time)


def run_train(cfg: RunConfig) -> TrainOutcome:
    _require(cfg, "data")
    ds = _load_dataset(cfg, cfg.data)
    return _train_streaming(ds, cfg, cfg.seed)


def run_eval(cfg: RunConfig) -> MetricsReport:
    _require(cfg, "model", "data")
    model, norm = load_model(cfg.model)
    ds = _load_dataset(cfg, cfg.data)
    return _evaluate(model, norm, ds)


def run_cv(cfg: RunConfig) -> CvOutcome:
    _require(cfg, "data")
    ds = _load_dataset(cfg, cfg.data)
    if cfg.fold_file is not None:
        folds = load_fold_file(cfg.fold_file, ds.n_samples)
    else:
        _require(cfg, "folds")
        folds = kfold(ds, cfg.folds, cfg.seed)
    reports = []
    for i, (train_idx, test_idx) in enumerate(folds):
        train_ds = ds.subset(train_idx)
        norm = fit_normalizer(train_ds)
        outcome = _train_streaming(train_ds, cfg, cfg.seed + i, norm=norm)
        reports.append(
            _evaluate(outcome.model, norm, ds.subset(test_idx), outcome.train_time)
        )
    return CvOutcome(reports)


# ---------------------------------------------------------------------------
# Commands


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "out")
    outcome = run_train(cfg)
    save_model(cfg.out, outcome.model, outcome.normalizer)
    print(f"training time: {outcome.train_time:.3f} s")
    print(f"blocks: {outcome.model.blocks_seen}")
    print(f"samples: {outcome.model.samples_seen}")
    print(f"threshold: {outcome.model.threshold:.6f}")
    print(f"model: {cfg.out}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    report = run_eval(cfg)
    print(format_report(report))
    if cfg.out:
        _write_kv(cfg.out, report_kv_lines(report))
        print(f"metrics: {cfg.out}")
    return EXIT_OK


def cmd_cv(cfg: RunConfig) -> int:
    outcome = run_cv(cfg)
    for i, report in enumerate(outcome.reports):
        parts = " ".join(f"{n}={getattr(report, n):.6f}" for n in _METRIC_FIELDS)
        print(f"fold {i + 1}/{len(outcome.reports)}: {parts}")
    for name in _METRIC_FIELDS:
        print(f"{name}: {outcome.mean(name):.3f} ± {outcome.std(name):.3f}")
    if cfg.out:
        lines = [f"folds\t{len(outcome.reports)}"]
        for i, report in enumerate(outcome.reports):
            lines += [f"fold{i}_{line}" for line in report_kv_lines(report)]
        for name in _METRIC_FIELDS:
            lines.append(f"{name}_mean\t{outcome.mean(name):.6f}")
            lines.append(f"{name}_std\t{outcome.std(name):.6f}")
        _write_kv(cfg.out, lines)
        print(f"report: {cfg.out}")
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    outcome = run_train(cfg)
    print(f"{'block':>5}  {'rows':>6}  {'seconds':>10}")
    for i, (rows, t) in enumerate(zip(outcome.block_rows, outcome.block_times), start=1):
        print(f"{i:>5}  {rows:>6}  {t:>10.6f}")
    print(f"training time: {outcome.train_time:.6f} s")
    print(f"blocks: {outcome.blocks}")
    print(f"avg time/block: {outcome.avg_block_time:.6f} s")
    print(f"max block time: {outcome.max_block_time:.6f} s")
    if cfg.arrival_interval is not None:
        feasible = outcome.avg_block_time < cfg.arrival_interval
        print(
            f"real-time at {cfg.arrival_interval:.6f} s/block arrival: "
            f"{'yes' if feasible else 'no'}"
        )
    if cfg.out:
        lines = [
            f"training_time\t{outcome.train_time:.6f}",
            f"blocks\t{outcome.blocks}",
            f"avg_time_per_block\t{outcome.avg_block_time:.6f}",
            f"max_block_time\t{outcome.max_block_time:.6f}",
        ]
        lines += [f"block{i}_time\t{t:.6f}" for i, t in enumerate(outcome.block_times)]
        _write_kv(cfg.out, lines)
        print(f"report: {cfg.out}")
    return EXIT_OK


_HANDLERS = {"train": cmd_train, "eval": cmd_eval, "cv": cmd_cv, "bench": cmd_bench}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _merge_config(ns)
        return _HANDLERS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

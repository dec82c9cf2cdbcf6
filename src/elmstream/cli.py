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
import gc
import math
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from typing import NoReturn, get_args, get_type_hints

import numpy as np

from .data import (
    DataError,
    LabeledDataset,
    Normalizer,
    StreamPlan,
    _text_lines,
    fit_normalizer,
    kfold,
    load_csv,
    load_fold_file,
    load_sparse,
    stream_blocks,
    stream_csv,
    stream_sparse,
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


_FORMATS = ("csv", "sparse")
_TRAINING = ("train", "cv", "bench")


def _key(help: str, metavar: str | None = None, *, commands=None, default=None,
         required=False):
    """A RunConfig field: a config key of every command and the flag of
    ``commands`` (every command when None), shown with ``help``. Those
    commands need it set when ``required`` is True or, given as a test of
    the RunConfig, when that test holds."""
    return field(default=default, metadata={"help": help, "metavar": metavar,
                                            "commands": commands, "required": required})


def _is_flag_of(f, command: str) -> bool:
    return bool(f.metadata) and command in (f.metadata["commands"] or _HANDLERS)


@dataclass
class RunConfig:
    """Merged view of command-line flags and the optional config file.

    Each field but ``command`` is declared once here: its type and default
    are the config key's, and its metadata makes it the flag ``--name``
    (``_`` spelled ``-``) of the commands it names, in this order in --help.
    Construction checks every value, so a bad or missing one is reported
    before any file is read.
    """

    command: str
    data: str | None = _key("dataset path", required=True)
    format: str = _key("dataset format", "|".join(_FORMATS), default="csv")
    header: bool = _key("CSV file starts with a header line", default=False)
    labels: int | None = _key("number of labels", "M", required=True)
    features: int | None = _key("number of features (required for sparse format)", "D",
                                required=lambda cfg: cfg.format == "sparse")
    seed: int = _key("random seed (default 0)", commands=_TRAINING, default=0)
    out: str | None = _key("output path")
    hidden: int | None = _key("hidden neuron count (required)", "N", commands=_TRAINING,
                              required=True)
    activation: str = _key("hidden activation", "|".join(sorted(ACTIVATIONS)),
                           commands=_TRAINING, default="sigmoid")
    ridge: float = _key("ridge term for the initial solve (default 0)",
                        commands=_TRAINING, default=0.0)
    init_block: int | None = _key("rows in the initialization block", "N0", commands=_TRAINING,
                                  required=True)
    block: int | None = _key("rows per stream block", "B", commands=_TRAINING, required=True)
    shuffle_seed: int | None = _key("shuffle rows with this seed before streaming",
                                    commands=_TRAINING)
    recalibrate: bool = _key("recalibrate the threshold after every stream block",
                             commands=_TRAINING, default=False)
    model: str | None = _key("model file written by train", commands=("eval",), required=True)
    folds: int | None = _key("number of folds", "K", commands=("cv",),
                             required=lambda cfg: cfg.fold_file is None)
    fold_file: str | None = _key("explicit folds: one line of 0-based test indices per fold",
                                 commands=("cv",))
    arrival_interval: float | None = _key(
        "assert real-time feasibility against this per-block arrival interval", "SECONDS",
        commands=("bench",))

    def __post_init__(self):
        if self.command not in _HANDLERS:
            raise UsageError(f"unknown command {self.command!r}")
        for names, ok, requirement in _BOUNDS:
            for name in names:
                value = getattr(self, name)
                if value is not None and not ok(value):
                    raise UsageError(f"{_flag(name)} must be {requirement}, got {value!r}")
        if self.command == "cv" and self.folds is not None and self.fold_file is not None:
            raise UsageError("--folds and --fold-file are both given; 'cv' takes one")
        for f in fields(self):
            required = f.metadata.get("required")
            if required and _is_flag_of(f, self.command) and (required is True or required(self)):
                _require(self, f.name)


# Config key -> value type, read off the RunConfig annotations
# (``int | None`` -> int); "command" comes from the subcommand, not a key.
_FIELD_TYPES = {
    name: next(t for t in (get_args(hint) or (hint,)) if t is not type(None))
    for name, hint in get_type_hints(RunConfig).items()
    if name != "command"
}

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


def _build_parser() -> _Parser:
    """One subparser per command of ``_HANDLERS``, its help the handler's
    docstring, with ``--config`` and the flags RunConfig gives it."""
    parser = _Parser(
        prog="elmstream",
        description="Online sequential ELM for multi-label data streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.add_argument("--config", help="flat key-value config file; flags override it")
        for f in fields(RunConfig):
            meta = f.metadata
            if _is_flag_of(f, command):
                # A flag's value reaches _coerce as text, like a config value;
                # a boolean flag spells "true".
                as_text = ({"action": "store_const", "const": "true"}
                           if _FIELD_TYPES[f.name] is bool else {"metavar": meta["metavar"]})
                p.add_argument(_flag(f.name), help=meta["help"], **as_text)
    return parser


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
_KINDS = {int: "an integer", float: "a number", bool: "true or false"}


def _coerce(key: str, text: str):
    """The value ``text`` spells for ``key``, from a flag or the config file."""
    kind = _FIELD_TYPES[key]
    try:
        return _BOOLEANS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise UsageError(f"{_flag(key)} must be {_KINDS[kind]}, got {text!r}") from None


def _read_config_file(path: str) -> dict:
    """The values the config file ``path`` sets; a key set twice is an error."""
    values, set_at = {}, {}
    try:
        for lineno, line in _text_lines(path, "#"):
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise UsageError(f"{path}:{lineno}: expected 'key value'")
            key, text = parts
            if key not in _FIELD_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in set_at:
                raise UsageError(
                    f"{path}:{lineno}: config key {key!r} already set at line {set_at[key]}"
                )
            set_at[key] = lineno
            values[key] = _coerce(key, text)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except DataError as exc:
        raise UsageError(str(exc)) from None
    return values


def _merge_config(ns: argparse.Namespace) -> RunConfig:
    flag_values = {
        name: _coerce(name, text) for name in _FIELD_TYPES
        if (text := getattr(ns, name, None)) is not None
    }
    file_values = _read_config_file(ns.config) if ns.config else {}
    return RunConfig(command=ns.command, **{**file_values, **flag_values})


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(cfg: RunConfig, name: str) -> None:
    if getattr(cfg, name) is None:
        raise UsageError(f"{_flag(name)} is required for '{cfg.command}'")


def _read(cfg: RunConfig, plan: StreamPlan | None = None):
    """The dataset ``cfg.data`` or, given a ``plan``, its blocks, read from
    the file one block at a time."""
    if cfg.format == "sparse":
        args = (cfg.data, cfg.features, cfg.labels)
        return load_sparse(*args) if plan is None else stream_sparse(*args, plan)
    if plan is None:
        return load_csv(cfg.data, cfg.labels, cfg.header)
    return stream_csv(cfg.data, cfg.labels, plan, cfg.header)


def _blocks_of(cfg: RunConfig, ds: LabeledDataset, plan: StreamPlan):
    """The blocks of ``plan`` cut from ``ds`` or, with --shuffle-seed S,
    from one copy of its rows in ``default_rng(S).permutation`` order."""
    if cfg.shuffle_seed is not None:
        ds = ds.subset(np.random.default_rng(cfg.shuffle_seed).permutation(ds.n_samples))
    return stream_blocks(ds, plan)


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
    blocks: Iterable[LabeledDataset], cfg: RunConfig, layer_seed: int,
    norm: Normalizer | None = None,
) -> TrainOutcome:
    """Shared training loop: init, RLS updates, calibration, one block at a time.

    The normalizer defaults to one fit on the initial block (streaming
    contract); cross-validation passes one fit on the whole training fold.
    Each block is prepared just before its timer starts, so the reported
    time covers model work only. Block 0 is the initial solve plus
    calibration; each later block is one update, plus recalibration with
    --recalibrate.
    """
    block_rows, block_times = [], []
    for i, block in enumerate(blocks):
        if i == 0:
            if norm is None:
                norm = fit_normalizer(block)
            layer = init_hidden(block.n_features, cfg.hidden, cfg.activation, layer_seed)
        xb, yb = norm.transform(block.features), to_bipolar(block.labels)
        block_start = time.perf_counter()
        if i == 0:
            model = init_phase(layer, xb, yb, cfg.ridge)
        else:
            update(model, xb, yb)
        if i == 0 or cfg.recalibrate:
            model.threshold = calibrate_threshold(predict_raw(model, xb), block.labels).threshold
        block_times.append(time.perf_counter() - block_start)
        block_rows.append(block.n_samples)
    return TrainOutcome(model, norm, block_rows, block_times)


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
    """Train on ``cfg.data``, read one block at a time as it is learned; a
    shuffle needs every row first, so shuffled input is loaded whole, then cut."""
    plan = StreamPlan(cfg.init_block, cfg.block)
    blocks = _read(cfg, plan) if cfg.shuffle_seed is None else _blocks_of(cfg, _read(cfg), plan)
    return _train_streaming(blocks, cfg, cfg.seed)


def run_eval(cfg: RunConfig) -> MetricsReport:
    model, norm = load_model(cfg.model)
    return _evaluate(model, norm, _read(cfg))


def run_cv(cfg: RunConfig) -> CvOutcome:
    ds = _read(cfg)
    if cfg.fold_file is not None:
        folds = load_fold_file(cfg.fold_file, ds.n_samples)
    else:
        folds = kfold(ds, cfg.folds, cfg.seed)
    plan = StreamPlan(cfg.init_block, cfg.block)
    reports = []
    for i, (train_idx, test_idx) in enumerate(folds):
        train_ds = ds.subset(train_idx)
        norm = fit_normalizer(train_ds)
        outcome = _train_streaming(_blocks_of(cfg, train_ds, plan), cfg, cfg.seed + i, norm=norm)
        reports.append(
            _evaluate(outcome.model, norm, ds.subset(test_idx), outcome.train_time)
        )
    return CvOutcome(reports)


# ---------------------------------------------------------------------------
# Commands


def cmd_train(cfg: RunConfig) -> int:
    """train on a stream and write a model file"""
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
    """evaluate a trained model on a dataset"""
    report = run_eval(cfg)
    print(format_report(report))
    if cfg.out:
        _write_kv(cfg.out, report_kv_lines(report))
        print(f"metrics: {cfg.out}")
    return EXIT_OK


def cmd_cv(cfg: RunConfig) -> int:
    """k-fold cross-validation on one dataset"""
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
    """time the training stream block by block"""
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


def entry() -> NoReturn:
    """Run ``main`` on the process's arguments and exit with its code: the
    process entry of ``python -m elmstream.cli`` and of the ``elmstream``
    script. Every import is done by now, so the objects the imports made
    (numpy's above all) are frozen out of the garbage collector, and the
    collections that shut the interpreter down skip them (see README,
    "What a CLI job costs"). ``main`` itself changes no process-wide state,
    so a caller that runs it in its own process keeps its own GC."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()

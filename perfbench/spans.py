"""Per-layer tracing of elmstream from outside the program.

A ``Tracer`` rebinds each public function at the place where its callers
look it up (``elmstream.model.solve_spd``, ``elmstream.cli.load_csv``,
``elmstream.data.Normalizer.transform`` ...) to a wrapper that records a
span: name, start, end, parent span and request id. Spans stay in memory
and are written out once, at the end of the run. The program itself is
not edited, and ``uninstall`` puts every original function back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("data", "model", "numerics", "labels", "metrics", "cli")


def update_flops(h: int, d: int, m: int, b: int) -> float:
    """Computed flop count of one ``model.update`` call on B rows.

    Counts the hidden projection and the products of the update formulas
    in ``model.update``'s docstring: rank-one for B = 1, Woodbury with a
    Cholesky solve of the B x B matrix otherwise.
    """
    projection = 2.0 * b * d * h
    if b == 1:
        # M h, h'M h, the rank-one downdate, h'beta, M_new h, the beta outer product.
        return projection + 6.0 * h * h + 2.0 * h + 4.0 * h * m
    return (
        projection
        + 2.0 * h * h * b  # M H'
        + 2.0 * h * b * b  # H (M H')
        + b**3 / 3.0 + 2.0 * b * b * h  # Cholesky of S and its two triangular solves
        + 2.0 * h * h * b  # downdate (M H') K
        + 4.0 * b * h * m  # H beta and H' residual
        + 2.0 * h * h * m  # M_new (H' residual)
    )


def update_bytes(h: int) -> float:
    """Computed bytes of the H x H passes of one update.

    The formulas read M once for M H', read M and write M_new in the
    downdate, and read M_new once for the weight step: four passes over
    an H x H float64 matrix.
    """
    return 4.0 * 8.0 * h * h


def _count_rows(counts, args, result):
    counts["model.hidden_output.rows"] += np.shape(args[1])[0]


def _count_update(counts, args, result):
    learner, x = args[0], args[1]
    h, d = learner.hidden.hidden_count, learner.hidden.input_dim
    b = np.shape(x)[0]
    counts["model.update.flop"] += update_flops(h, d, learner.label_count, b)
    counts["model.update.bytes"] += update_bytes(h)


def _count_csv_bytes(counts, args, result):
    counts["data.load_csv.bytes"] += os.path.getsize(args[0])


def _count_saved_bytes(counts, args, result):
    counts["model.save_model.bytes"] += os.path.getsize(args[0])


def _targets():
    """(span name, owners whose attribute callers look up, attribute, counter)."""
    from elmstream import cli, data, labels, metrics, model

    return [
        ("data.load_csv", (cli,), "load_csv", _count_csv_bytes),
        ("data.stream_blocks", (data, cli), "stream_blocks", None),
        ("data.fit_normalizer", (data, cli), "fit_normalizer", None),
        ("data.transform", (data.Normalizer,), "transform", None),
        ("model.init_hidden", (model, cli), "init_hidden", None),
        ("model.hidden_output", (model,), "hidden_output", _count_rows),
        ("model.init_phase", (model, cli), "init_phase", None),
        ("model.update", (model, cli), "update", _count_update),
        ("model.predict_raw", (model, cli), "predict_raw", None),
        ("model.save_model", (cli,), "save_model", _count_saved_bytes),
        ("model.load_model", (cli,), "load_model", None),
        ("numerics.solve_spd", (model,), "solve_spd", None),
        ("numerics.matmul", (model,), "matmul", None),
        ("labels.to_bipolar", (labels, cli), "to_bipolar", None),
        ("labels.decode", (labels, cli), "decode", None),
        ("labels.calibrate_threshold", (labels, cli), "calibrate_threshold", None),
        ("metrics.compute_report", (metrics, cli), "compute_report", None),
        ("metrics.format_report", (cli,), "format_report", None),
        ("cli.main", (cli,), "main", None),
    ]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            requests.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced function; names a later program lacks are skipped."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owners, attr, counter in _targets():
            for owner in owners:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                if original not in wrappers:
                    wrappers[original] = self._wrap(name, original, counter)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[original])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self, units: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per unit of work (one pass or one round)."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_dur = dur - child

        def total(name):
            mask = names == name
            return float(dur[mask].sum()), int(mask.sum())

        out: dict[str, tuple[float, str]] = {}
        for name, _, _, _ in _targets():
            seconds, calls = total(name)
            out[f"{name}.s"] = (seconds / units, "s")
            out[f"{name}.calls"] = (calls / units, "count")
        for layer in LAYERS:
            in_layer = np.array([n.split(".", 1)[0] == layer for n in names], dtype=bool)
            out[f"{layer}.self_s"] = (float(self_dur[in_layer].sum()) / units, "s")
        csv_s, _ = total("data.load_csv")
        update_s, _ = total("model.update")
        c = self.counts
        out["data.load_csv.mb_per_s"] = (
            c["data.load_csv.bytes"] / 1e6 / csv_s if csv_s > 0 else 0.0, "MB/s"
        )
        out["model.hidden_output.rows"] = (c["model.hidden_output.rows"] / units, "count")
        out["model.save_model.bytes"] = (c["model.save_model.bytes"] / units, "bytes")
        out["model.update.gflop_per_s"] = (
            c["model.update.flop"] / 1e9 / update_s if update_s > 0 else 0.0, "GFLOP/s"
        )
        out["model.update.mb_moved"] = (c["model.update.bytes"] / 1e6 / units, "MB")
        return out

    def write(self, path) -> None:
        """Write spans as JSON lines: [name, start, end, parent, request]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"]}) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.requests):
                fh.write(json.dumps(row) + "\n")

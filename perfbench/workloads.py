"""The benchmark's three workloads, their correctness checks and statistics.

Every workload is a closed loop with one caller: the next arrival is sent
only after the previous one has been predicted and learned. Inputs are
generated from the seed before any timing starts.

* ``prequential_b1``: Yeast shape, one sample per arrival (rank-one path).
* ``block_h1000``: Scene shape, H=1000, blocks of 50 (Woodbury path).
* ``cli_train_eval``: ``elmstream train`` then ``elmstream eval`` as fresh
  subprocesses on CSV files.

A run returns a ``Result``: its metrics as ``name -> (value, unit)``, the
notes printed beside them, and the checks and operations it counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
from elmstream import cli, data, labels, metrics, model

clock = time.perf_counter

GATE_TOL = 1e-6  # max |beta - batch beta|, the stream/batch equivalence contract
EVAL_REPS = 5  # test-set evaluations after each training pass
SETUP_REPS = 9  # minimum set-ups measured in an untraced streaming run
IMPORT_PROBES = 11  # fresh-interpreter imports measured per CLI run
WARMUP_ARRIVALS = 50
TAIL_MIN_BEYOND = 10
TAIL_WINDOW = 1000  # arrivals per window over which a tail percentile is taken
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 120.0
GATE_CHUNK_ROWS = 2000
LAYER_SEED = 7  # the learner's hidden layer; the run's seed draws only the data
COMPUTED_NOTE = ("model.update.gflop_per_s and model.update.mb_moved are computed from "
                 "H, B, M and D, not counted by hardware")


@dataclass(frozen=True)
class Spec:
    n_features: int
    n_labels: int
    hidden: int
    init_block: int
    block: int
    train_rows: int  # the initial block included
    test_rows: int
    p50_window: int  # consecutive arrivals (CLI: jobs) per window for latency_p50_ms


# Sizes per workload; "smoke" is the tiny variant used by run.py --smoke.
SPECS = {
    "prequential_b1": {
        "full": Spec(103, 14, 300, 600, 1, 5000, 917, 200),
        "smoke": Spec(103, 14, 40, 80, 1, 280, 50, 20),
    },
    "block_h1000": {
        "full": Spec(294, 6, 1000, 1500, 50, 12000, 1196, 210),
        "smoke": Spec(294, 6, 60, 120, 10, 320, 50, 20),
    },
    "cli_train_eval": {
        "full": Spec(103, 14, 300, 600, 30, 2417, 917, 1),
        "smoke": Spec(103, 14, 40, 80, 10, 200, 50, 1),
    },
}
WORKLOADS = tuple(SPECS)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        self.failed += 0 if ok else 1

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def run(name: str, size: str, seed: int, seconds: float, workdir: str, src_dir: str,
        tracer=None) -> Result:
    """Run one workload; with a tracer, measure its per-layer metrics instead."""
    spec = SPECS[name][size]
    if name == "cli_train_eval":
        return run_cli(spec, seed, seconds, workdir, src_dir, tracer)
    return run_stream(spec, seed, seconds, tracer)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 100.0


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def _overhead(walls) -> dict[str, tuple[float, str]]:
    """Tracing overhead from walls alternating untraced, traced, untraced, ...

    Each traced wall is compared with the untraced one just before it, so
    a machine that slows down over the run does not show as overhead.
    """
    pairs = [(walls[i - 1], walls[i]) for i in range(1, len(walls), 2)]
    return {
        "trace.overhead_s": (_median([t - u for u, t in pairs]), "s"),
        "trace.overhead_pct": (_median([100.0 * (t / u - 1.0) for u, t in pairs]), "%"),
    }


def _lowest_window_median(series, window: int) -> float:
    """Lowest median over windows of about ``window`` consecutive values of each series.

    The end-to-end timings take a run's least disturbed stretch: on a
    shared host the machine's speed drifts by a fifth or more over minutes,
    longer than a run, so a median over the whole run measures the
    neighbours as much as the program. The window sizes were chosen by the
    run-to-run spread they gave on each workload.
    """
    return min(float(np.median(chunk)) for values in series
               for chunk in np.array_split(np.asarray(values), max(1, len(values) // window)))


def _peak_rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Streaming workloads: the program is called in this process.


@dataclass
class _Pass:
    setup_s: float
    phase_s: float
    eval_s: list[float]
    wall_s: float
    latencies: np.ndarray
    hamming: float
    test_hamming: float
    failed: int
    beta: np.ndarray


class StreamWorkload:
    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        n = spec.train_rows
        x, y = inputs.synthetic_stream(n + spec.test_rows, spec.n_features, spec.n_labels, seed)
        self.stream = data.LabeledDataset(features=x[:n], labels=y[:n])
        self.test = data.LabeledDataset(features=x[n:], labels=y[n:])
        self.stream_labels = y[spec.init_block : n]

    def setup(self):
        """Everything before the first arrival can be served."""
        s = self.spec
        blocks = data.stream_blocks(self.stream, data.StreamPlan(s.init_block, s.block))
        norm = data.fit_normalizer(blocks[0])
        layer = model.init_hidden(s.n_features, s.hidden, "sigmoid", LAYER_SEED)
        x0 = norm.transform(blocks[0].features)
        learner = model.init_phase(layer, x0, labels.to_bipolar(blocks[0].labels))
        learner.threshold = labels.calibrate_threshold(
            model.predict_raw(learner, x0), blocks[0].labels
        ).threshold
        return blocks[1:], norm, learner

    @staticmethod
    def serve(arrivals, norm, learner, latencies, tracer=None):
        """Closed predict-then-learn loop; returns (predictions, failures)."""
        preds = []
        failed = 0
        for i, blk in enumerate(arrivals):
            if tracer is not None:
                tracer.request += 1
            start = clock()
            try:
                x = norm.transform(blk.features)
                pred = labels.decode(model.predict_raw(learner, x), learner.threshold)
                model.update(learner, x, labels.to_bipolar(blk.labels))
            except (ArithmeticError, ValueError):
                failed += 1
                pred = np.full(blk.labels.shape, -1, dtype=np.int8)
            latencies[i] = clock() - start
            preds.append(pred)
        return preds, failed

    def evaluate(self, norm, learner) -> float:
        """Score the held-out test set; returns its hamming loss."""
        x = norm.transform(self.test.features)
        pred = labels.decode(model.predict_raw(learner, x), learner.threshold)
        return metrics.compute_report(pred, self.test.labels).hamming_loss

    def one_pass(self, tracer=None) -> tuple[_Pass, object, object]:
        t0 = clock()
        if tracer is not None:
            tracer.request += 1
        arrivals, norm, learner = self.setup()
        t1 = clock()
        latencies = np.empty(len(arrivals))
        preds, failed = self.serve(arrivals, norm, learner, latencies, tracer)
        t2 = clock()
        eval_s = []
        for _ in range(EVAL_REPS):
            if tracer is not None:
                tracer.request += 1
            start = clock()
            test_hamming = self.evaluate(norm, learner)
            eval_s.append(clock() - start)
        wall = clock() - t0
        hamming = float(np.mean(np.concatenate(preds) != self.stream_labels))
        result = _Pass(t1 - t0, t2 - t1, eval_s, wall, latencies, hamming, test_hamming,
                       failed, learner.beta.copy())
        return result, norm, learner

    def gate(self, norm, learner) -> float:
        """Max |beta - batch solve| from H'H and H'Y accumulated over the stream."""
        w, b = learner.hidden.weights, learner.hidden.biases
        h_count = w.shape[0]
        gram = np.zeros((h_count, h_count))
        hty = np.zeros((h_count, self.spec.n_labels))
        for start in range(0, self.stream.n_samples, GATE_CHUNK_ROWS):
            stop = start + GATE_CHUNK_ROWS
            x = self.stream.features[start:stop] * norm.scale + norm.offset
            h = 1.0 / (1.0 + np.exp(-(x @ w.T + b)))
            y = 2.0 * self.stream.labels[start:stop] - 1.0
            gram += h.T @ h
            hty += h.T @ y
        batch_beta = np.linalg.solve(gram, hty)
        return float(np.max(np.abs(batch_beta - learner.beta)))


def run_stream(spec: Spec, seed: int, seconds: float, tracer=None) -> Result:
    """Untraced (tracer None): end-to-end metrics. Traced: per-layer metrics.

    A traced run alternates untraced and traced passes; the tracing overhead
    is the median difference between each traced pass and the untraced one
    before it.
    """
    w = StreamWorkload(spec, seed)
    res = Result()

    arrivals, norm, learner = w.setup()  # warm-up, not measured
    w.serve(arrivals[:WARMUP_ARRIVALS], norm, learner, np.empty(WARMUP_ARRIVALS))
    w.evaluate(norm, learner)

    passes: list[_Pass] = []
    traced: list[bool] = []
    measured = 0.0
    min_passes = 1 if tracer is None else 2
    while True:
        use_tracer = tracer is not None and len(passes) % 2 == 1
        if use_tracer:
            tracer.install()
        try:
            p, norm, learner = w.one_pass(tracer if use_tracer else None)
        finally:
            if use_tracer:
                tracer.uninstall()
        passes.append(p)
        traced.append(use_tracer)
        measured += p.wall_s
        res.attempted += len(p.latencies)
        res.failed += p.failed
        if len(passes) == 1:
            gap = w.gate(norm, learner)
            res.check("stream_batch_beta", gap <= GATE_TOL,
                      f"max|beta - batch beta| = {gap:.3e} (tolerance {GATE_TOL:g})")
        if len(passes) >= min_passes and measured + p.wall_s > seconds:
            break

    first = passes[0]
    repeats = [np.array_equal(p.beta, first.beta) and p.hamming == first.hamming
               for p in passes[1:]]
    res.check("passes_deterministic", all(repeats),
              f"{sum(repeats)} of {len(repeats)} later passes reproduce pass 1's beta "
              "and prequential hamming exactly")
    if tracer is not None:
        res.metrics.update(tracer.summary(units=sum(traced)))
        res.metrics["cli.import_s"] = (0.0, "s")
        res.metrics.update(_overhead([p.wall_s for p in passes]))
        res.notes += [f"per-layer values are per training pass; {sum(traced)} traced and "
                      f"{len(passes) - sum(traced)} untraced passes", COMPUTED_NOTE]
        return res

    setups = [p.setup_s for p in passes]
    while len(setups) < SETUP_REPS:
        start = clock()
        w.setup()
        setups.append(clock() - start)
    latencies = np.concatenate([p.latencies for p in passes])
    # The tail is taken within windows of consecutive arrivals and its median
    # over the windows reported, so a few seconds in which a neighbour on the
    # machine slows every arrival do not set the run's figure.
    per_pass = len(first.latencies)
    n_windows = max(1, per_pass // TAIL_WINDOW)
    tail_p = tail_percentile(per_pass // n_windows)
    tail = _median([np.percentile(window, tail_p) for p in passes
                    for window in np.array_split(p.latencies, n_windows)])
    rows = spec.train_rows - spec.init_block
    res.metrics = {
        "setup_s": (_median(setups), "s"),
        "samples_per_s": (rows / min(p.phase_s for p in passes), "1/s"),
        "latency_p50_ms": (1e3 * _lowest_window_median([p.latencies for p in passes],
                                                        spec.p50_window), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "train_wall_s": (min(p.setup_s + p.phase_s for p in passes), "s"),
        "eval_wall_s": (_median([s for p in passes for s in p.eval_s]), "s"),
        "prequential_hamming": (first.hamming, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF)), "MB"),
    }
    res.notes += [
        f"latency_tail_ms is the median over {n_windows * len(passes)} windows of "
        f"{per_pass // n_windows} consecutive arrivals of {spec.block} row(s) of their "
        f"p{tail_p:g}; latency_p50_ms is the lowest median over windows of "
        f"{spec.p50_window} consecutive arrivals in a pass; the median of all {latencies.size} "
        f"arrivals pooled is {1e3 * float(np.median(latencies)):.6f} ms",
        f"samples_per_s and train_wall_s are of the fastest of {len(passes)} passes",
        f"setup_s is the median of {len(setups)} set-ups; eval_wall_s of "
        f"{EVAL_REPS * len(passes)} scorings of {spec.test_rows} test rows",
        f"test-set hamming after the stream: {first.test_hamming:.6f}",
    ]
    return res


# ---------------------------------------------------------------------------
# CLI workload: the program runs as fresh subprocesses.


@dataclass
class _Child:
    wall_s: float
    returncode: int
    rss_mb: float
    output: str


def _run_child(argv, env, cwd, out_path) -> _Child:
    """Run a subprocess to completion and return its wall time and peak RSS."""
    with open(out_path, "w+", encoding="utf-8") as out:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return _Child(wall, proc.returncode, _peak_rss_mb(usage), text)


def _printed_hamming(report_text: str) -> float | None:
    for line in report_text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "hamming_loss":
            return float(parts[1])
    return None


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliWorkload:
    def __init__(self, spec: Spec, seed: int, workdir: str, src_dir: str):
        self.spec = spec
        self.workdir = workdir
        x, y = inputs.synthetic_stream(spec.train_rows + spec.test_rows, spec.n_features,
                                       spec.n_labels, seed)
        n = spec.train_rows
        self.train_csv = os.path.join(workdir, "train.csv")
        self.test_csv = os.path.join(workdir, "test.csv")
        self.model_path = os.path.join(workdir, "model.txt")
        inputs.write_csv(self.train_csv, x[:n], y[:n])
        inputs.write_csv(self.test_csv, x[n:], y[n:])
        self.train_argv = [
            "train", "--data", self.train_csv, "--labels", str(spec.n_labels),
            "--hidden", str(spec.hidden), "--init-block", str(spec.init_block),
            "--block", str(spec.block), "--seed", str(LAYER_SEED), "--out", self.model_path,
        ]
        self.eval_argv = ["eval", "--data", self.test_csv, "--labels", str(spec.n_labels),
                          "--model", self.model_path]
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    def child(self, args) -> _Child:
        return _run_child([sys.executable, *args], self.env, self.workdir,
                          os.path.join(self.workdir, "child.out"))

    def command(self, argv) -> _Child:
        return self.child(["-m", "elmstream.cli", *argv])

    def in_process(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def reference_hamming(self) -> float:
        """Hamming loss of the saved model on the test file, computed in this process."""
        learner, norm = model.load_model(self.model_path)
        test = data.load_csv(self.test_csv, self.spec.n_labels)
        pred = labels.decode(model.predict_raw(learner, norm.transform(test.features)),
                             learner.threshold)
        return metrics.hamming_loss(pred, test.labels)

    def check_eval(self, res: Result, printed: float | None) -> float:
        reference = self.reference_hamming()
        ok = printed is not None and abs(printed - reference) <= 5e-7
        res.check("eval_hamming_matches_in_process", ok,
                  f"eval printed {printed}, in-process predict/decode {reference:.6f}")
        return reference


def run_cli(spec: Spec, seed: int, seconds: float, workdir: str, src_dir: str,
            tracer=None) -> Result:
    """Untraced: subprocess train/eval rounds. Traced: cli.main in-process."""
    w = CliWorkload(spec, seed, workdir, src_dir)
    res = Result()
    if tracer is not None:
        return _run_cli_traced(w, seconds, tracer, res)

    probe = ["-c", "import elmstream.cli"]
    w.child(probe)  # warm-up: byte-compile and fill the page cache
    imports = []
    for _ in range(IMPORT_PROBES):
        c = w.child(probe)
        res.attempted += 1
        res.failed += c.returncode != 0
        imports.append(c.wall_s)
    w.command(w.train_argv)  # warm-up round
    w.command(w.eval_argv)

    trains, evals, rss = [], [], []
    digests, printed = set(), set()
    measured = 0.0
    while True:
        t = w.command(w.train_argv)
        digests.add(_file_digest(w.model_path) if t.returncode == 0 else None)
        e = w.command(w.eval_argv)
        printed.add(_printed_hamming(e.output) if e.returncode == 0 else None)
        res.attempted += 2
        res.failed += (t.returncode != 0) + (e.returncode != 0)
        trains.append(t.wall_s)
        evals.append(e.wall_s)
        rss.append(max(t.rss_mb, e.rss_mb))
        measured += t.wall_s + e.wall_s
        if measured + t.wall_s + e.wall_s > seconds:
            break
    res.check("train_deterministic", len(digests) == 1 and None not in digests,
              f"{len(trains)} train runs wrote {len(digests)} distinct model file(s)")
    res.check("eval_deterministic", len(printed) == 1 and None not in printed,
              f"{len(evals)} eval runs printed {len(printed)} distinct hamming loss(es)")
    hamming = w.check_eval(res, next(iter(printed)))

    # A run holds too few jobs for any percentile to have ten beyond it, so
    # the tail is the slowest job; a fixed rule keeps runs of a faster
    # program, which fit more jobs, comparable.
    jobs = np.add(trains, evals)
    train_wall = min(trains)
    res.metrics = {
        "setup_s": (_median(imports), "s"),
        "samples_per_s": (spec.train_rows / train_wall, "1/s"),
        "latency_p50_ms": (1e3 * _lowest_window_median([jobs], spec.p50_window), "ms"),
        "latency_tail_ms": (1e3 * float(jobs.max()), "ms"),
        "train_wall_s": (train_wall, "s"),
        "eval_wall_s": (min(evals), "s"),
        "prequential_hamming": (hamming, "ratio"),
        "peak_rss_mb": (_median(rss), "MB"),
    }
    res.notes += [
        f"setup_s is the median of {len(imports)} fresh-interpreter 'import elmstream.cli' runs",
        f"one job is train ({spec.train_rows} rows) then eval ({spec.test_rows} rows) as "
        f"subprocesses; {len(jobs)} jobs; latency_tail_ms is the slowest of them",
        f"latency_p50_ms is the lowest median over windows of {spec.p50_window} "
        f"consecutive jobs, train_wall_s and eval_wall_s the fastest of {len(jobs)}; the "
        f"median job took {_median(jobs):.6f} s",
        "samples_per_s is training rows per second of train wall time; "
        "prequential_hamming is the eval hamming loss",
    ]
    return res


def _run_cli_traced(w: CliWorkload, seconds: float, tracer, res: Result) -> Result:
    probe = ["-c", "import time; t = time.perf_counter(); import elmstream.cli; "
                   "print(time.perf_counter() - t)"]
    w.child(probe)
    imports = []
    for _ in range(IMPORT_PROBES):
        c = w.child(probe)
        res.attempted += 1
        res.failed += c.returncode != 0
        if c.returncode == 0:
            imports.append(float(c.output.split()[-1]))

    w.in_process(w.train_argv)  # warm-up round
    w.in_process(w.eval_argv)
    walls: list[tuple[bool, float]] = []
    outputs = []
    measured = 0.0
    while True:
        use_tracer = len(walls) % 2 == 1
        if use_tracer:
            tracer.install()
        start = clock()
        try:
            tracer.request += 1
            train_code, _ = w.in_process(w.train_argv)
            tracer.request += 1
            eval_code, text = w.in_process(w.eval_argv)
        finally:
            if use_tracer:
                tracer.uninstall()
        wall = clock() - start
        walls.append((use_tracer, wall))
        outputs.append(_printed_hamming(text) if eval_code == 0 else None)
        res.attempted += 2
        res.failed += (train_code != 0) + (eval_code != 0)
        measured += wall
        if len(walls) >= 2 and measured + wall > seconds:
            break
    res.check("eval_deterministic", len(set(outputs)) == 1 and None not in outputs,
              f"{len(outputs)} in-process eval runs agree")
    w.check_eval(res, outputs[0])

    traced_rounds = sum(t for t, _ in walls)
    res.metrics.update(tracer.summary(units=traced_rounds))
    res.metrics["cli.import_s"] = (_median(imports) if imports else 0.0, "s")
    res.metrics.update(_overhead([s for _, s in walls]))
    res.notes += [f"per-layer values are per in-process train+eval round; {traced_rounds} "
                  f"traced and {len(walls) - traced_rounds} untraced rounds", COMPUTED_NOTE]
    return res

"""elmstream benchmark: one workload per run, metrics as JSON on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones. Earlier lines print every metric with
its unit, the correctness checks, notes on how each figure was taken and
the environment. ``--smoke`` runs every workload at tiny sizes, both
traced and untraced, and checks that each named metric is printed and the
correctness checks ran.

Exit codes: 0 success, 1 a correctness check failed (the result is still
printed), 2 usage error or no elmstream sources in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"  # scratch inputs and span files, inside the checkout
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SMOKE_SEED = 1
SMOKE_TIMEOUT_S = 170
# One BLAS thread: on a small shared machine, two threads made small-matrix
# timings bimodal (set-up read 0.045 s or 0.18 s from run to run).
BLAS_THREADS = 1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="workload sizes; smoke is tiny, for checking the harness")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at smoke size, traced and untraced, and check them")
    return p.parse_args(argv)


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "git_sha": None,
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        env["git_sha"] = out.stdout.strip() or None
    return env


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "elmstream").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_workload(args) -> int:
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = _declared()["per_layer" if args.trace else "end_to_end"]
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        res = workloads.run(args.workload, args.size, args.seed, args.seconds, workdir,
                            str(SRC), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} size {args.size}")
    print("env " + json.dumps(_environment(), sort_keys=True))
    for name, ok, detail in res.checks:
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")
    for name, (value, unit) in res.metrics.items():
        print(f"metric {name} {value!r} {unit}")
    error_rate = res.failed / max(res.attempted, 1)
    print(f"metric error_rate {error_rate!r} ratio ({res.failed} failed of {res.attempted})")
    for note in res.notes:
        print(f"note {note}")
    if tracer is not None:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans {len(tracer.names)} written to {spans_path.relative_to(ROOT)}")

    out = {}
    for entry in declared:
        value, unit = res.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {unit}, declared {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    correct = res.correct and res.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(res.attempted, 1),
                      "failed": res.failed, "metrics": out}))
    return 0 if correct else 1


def _smoke() -> int:
    """Run each workload tiny, traced and untraced, and check what it prints."""
    import workloads

    declared = _declared()
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name,
                    "--seed", str(SMOKE_SEED), "--seconds", "0.5", "--trace", str(trace),
                    "--size", "smoke"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=SMOKE_TIMEOUT_S, check=False)
            lines = proc.stdout.strip().splitlines()
            label = f"{name} trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            wanted = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
            printed = {line.split()[1] for line in lines if line.startswith("metric ")}
            missing = sorted((wanted - set(result["metrics"])) | (wanted - printed))
            if missing:
                problems.append(f"{label}: metrics not printed: {missing}")
            if not result["correct"] or not any(line.startswith("check ") for line in lines):
                problems.append(f"{label}: correctness checks missing or failed")
            print(f"smoke {label}: exit {proc.returncode}, "
                  f"{len(result['metrics'])} metrics, correct {result['correct']}")
    for problem in problems:
        print(f"smoke FAILED {problem}")
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "elmstream" / "__init__.py").is_file():
        print(f"no elmstream sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        print("--workload is required (or --smoke)", file=sys.stderr)
        return 2
    for var in BLAS_ENV_VARS:  # must be set before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import elmstream

    if Path(elmstream.__file__).resolve().parent != (SRC / "elmstream").resolve():
        print(f"imported elmstream from {elmstream.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return _smoke() if args.smoke else _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

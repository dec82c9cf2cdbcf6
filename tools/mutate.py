"""Mutation probe: which small code changes does the Tier-1 suite miss?

Usage, from the repository root:

    python tools/mutate.py [MODULE ...]    # e.g. data.py cli.py; default: all six

For each named module of ``src/elmstream`` it makes one mutant per site
inside a function or lambda body: a comparison swapped (``<``/``<=``,
``>``/``>=``, ``==``/``!=``, ``is``/``is not``, ``in``/``not in``), an
arithmetic operator swapped (``+``/``-``, ``*``/``/``), ``and``/``or``
swapped, a ``not`` dropped, or a numeric constant plus one. The mutant
module, as ``ast.unparse`` prints it, goes into a private copy of the
repository, where the suite runs with ``-x``, two mutants at a time. A
mutant that passes the suite survives. A survivor listed in
``EQUIVALENT`` behaves as the original does, for the reason given there;
every other survivor is printed, and then the exit status is 1.

It takes minutes per module, and it is not part of the suite.
"""

from __future__ import annotations

import ast
import copy
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "elmstream")
MODULES = ("cli.py", "data.py", "labels.py", "metrics.py", "model.py", "numerics.py")
JOBS = 2
TIMEOUT_S = 600  # a mutant that loops is killed by this

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}

# Each survivor that behaves as the original does, and why; the key is
# the one the probe prints: "module:function: original -> mutant in
# `source line`", with " #2" and so on for a repeat on that line.
EQUIVALENT = {
    "data.py:subset: idx.size == 0 and idx.dtype != bool -> idx.size == 0 or idx.dtype != bool"
    " in `if idx.size == 0 and idx.dtype != bool:`":
        "the cast also runs on non-empty indices; callers pass integers or a mask, unchanged by it",
    "data.py:_text_lines: 1 -> 2 in `line = line.split(comment, 1)[0]`":
        "only the text before the first comment character is kept",
    "metrics.py:compute_report: 1 -> 2"
    " in `f1 = np.where(both_empty, 1.0, 2 * inter / np.maximum(n_pred + n_true, 1))`":
        "a row whose counts sum to 1 has no common label: 0 / 1 and 0 / 2 are both 0",
    "numerics.py:_invert_lower: 0 -> 1 in `n = lower.shape[0]`":
        "the factor is square",
    "numerics.py:_invert_lower: n <= _INVERT_BASE_ROWS -> n < _INVERT_BASE_ROWS"
    " in `if n <= _INVERT_BASE_ROWS:`":
        "a 64-row factor inverted by halves is the same inverse up to rounding",
    "numerics.py:_invert_lower: 2 -> 3 in `half = n // 2`":
        "any split point gives the same inverse up to rounding; halves are a speed choice",
    "model.py:init_phase: ridge > 0.0 -> ridge >= 0.0 in `if ridge > 0.0:`":
        "a ridge of 0.0 added to the Gram matrix's diagonal leaves it as it is",
    "model.py:__post_init__: norm <= _LAYER_LIMIT -> norm < _LAYER_LIMIT"
    " in `object.__setattr__(self, \"_bounded\", bool(norm <= _LAYER_LIMIT))  # NaN fails too`":
        "a layer at its limit is as far below overflow as one under it",
    "model.py:hidden_output: np.vdot(x, x) <= _INPUT_LIMIT -> np.vdot(x, x) < _INPUT_LIMIT"
    " in `if layer._bounded and np.vdot(x, x) <= _INPUT_LIMIT:  # a NaN or inf sum fails`":
        "an input at its limit is as far below overflow as one under it",
    "model.py:init_phase: model._beta_sq <= _BETA_LIMIT -> model._beta_sq < _BETA_LIMIT"
    " in `if h0 is not None and model._beta_sq <= _BETA_LIMIT:`":
        "a weight norm at its limit is as far below overflow as one under it",
    "model.py:update: load <= _LOAD_LIMIT -> load < _LOAD_LIMIT"
    " in `if load <= _LOAD_LIMIT and model._beta_sq <= _BETA_LIMIT:`":
        "a load at its limit is as far below overflow as one under it",
    "model.py:update: model._beta_sq <= _BETA_LIMIT -> model._beta_sq < _BETA_LIMIT"
    " in `if load <= _LOAD_LIMIT and model._beta_sq <= _BETA_LIMIT:`":
        "a weight norm at its limit is as far below overflow as one under it",
    "model.py:predict_raw: model._beta_sq <= _BETA_LIMIT -> model._beta_sq < _BETA_LIMIT"
    " in `if model._beta_sq <= _BETA_LIMIT:`":
        "a weight norm at its limit is as far below overflow as one under it",
}


class Mutator(ast.NodeTransformer):
    """Numbers the mutation sites of a module in one fixed order, records
    each as (function, line, original, mutant), and applies the site
    numbered ``target`` (none when it is -1)."""

    def __init__(self, target: int = -1):
        self.target = target
        self.sites: list[tuple[str, int, str, str]] = []
        self.function: str | None = None

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        node.body = [self.visit(stmt) for stmt in node.body]
        self.function = outer
        return node

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        outer, self.function = self.function, self.function or "<lambda>"
        node.body = self.visit(node.body)
        self.function = outer
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                node = self.site(node, lambda n: n.ops.__setitem__(i, SWAPS[type(op)]()))
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) in SWAPS:
            node = self.site(node, lambda n: setattr(n, "op", SWAPS[type(n.op)]()))
        return node

    visit_AugAssign = visit_BoolOp = visit_BinOp

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return self.site(node, None)
        return node

    def visit_Constant(self, node):
        if type(node.value) in (int, float):
            return self.site(node, lambda n: setattr(n, "value", n.value + 1))
        return node

    def site(self, node, change):
        """``node``, or its mutant if this site is the target. ``change``
        edits a copy in place; None drops a ``not``."""
        if self.function is None:
            return node
        if change is None:
            mutant = node.operand
        else:
            mutant = copy.deepcopy(node)
            change(mutant)
        number = len(self.sites)
        self.sites.append((self.function, node.lineno, ast.unparse(node), ast.unparse(mutant)))
        return mutant if number == self.target else node


def mutant_source(source: str, target: int) -> tuple[str, list]:
    mutator = Mutator(target)
    tree = mutator.visit(ast.parse(source))
    return ast.unparse(tree), mutator.sites


def passes(workdir: str, module: str) -> bool:
    """Whether the suite passes in ``workdir``, the module's own test file first."""
    own = os.path.join("tests", f"test_{module[:-3]}.py")
    paths = [own] if os.path.exists(os.path.join(workdir, own)) else []
    env = {**os.environ, "PYTHONPATH": os.path.join(workdir, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    # The allowlist's own guard reads the modules' text, which the probe
    # rewrites with ast.unparse, so it is left out of the probe's runs.
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--ignore", os.path.join("tests", "test_mutate.py"), *paths, "tests"]
    try:
        return subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def probe(module: str, workdirs: queue.Queue) -> list[str]:
    """The keys of ``module``'s surviving mutants."""
    with open(os.path.join(ROOT, PACKAGE, module), encoding="utf-8") as fh:
        source = fh.read()
    plain, sites = mutant_source(source, -1)

    def run(target: int) -> bool:
        workdir = workdirs.get()
        path = os.path.join(workdir, PACKAGE, module)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(plain if target < 0 else mutant_source(source, target)[0])
            return passes(workdir, module)
        finally:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
            workdirs.put(workdir)

    if not run(-1):
        sys.exit(f"{module}: the suite fails on the unmutated module as ast.unparse prints it")
    with ThreadPoolExecutor(JOBS) as pool:
        survived = list(pool.map(run, range(len(sites))))
    lines = source.splitlines()
    keys, counts = [], {}
    for (function, line, before, after), alive in zip(sites, survived):
        key = f"{module}:{function}: {before} -> {after} in `{lines[line - 1].strip()}`"
        counts[key] = counts.get(key, 0) + 1
        key += f" #{counts[key]}" if counts[key] > 1 else ""
        if alive:
            verdict = "equivalent" if key in EQUIVALENT else "SURVIVED"
            print(f"{verdict} {module}:{line} {key}", flush=True)
            keys.append(key)
    print(f"{module}: {len(sites)} mutants, {sum(survived)} survived")
    return keys


def main(modules: list[str]) -> int:
    for module in modules:
        if module not in MODULES:
            sys.exit(f"unknown module {module!r}; choose from {', '.join(MODULES)}")
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        workdirs = queue.Queue()
        for i in range(JOBS):
            workdir = os.path.join(scratch, str(i))
            shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
            workdirs.put(workdir)
        survivors = [key for module in modules for key in probe(module, workdirs)]
    unexplained = [key for key in survivors if key not in EQUIVALENT]
    print(f"{len(survivors)} survived, {len(unexplained)} not listed as equivalent")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(MODULES)))

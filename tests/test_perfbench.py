"""The benchmark's in-process streaming path runs on the library as it is.

perfbench pins part of the library's API (``stream_blocks``, ``init_phase``,
``update``, ``decode`` ...). One smoke-size pass of each streaming workload
here catches a change that breaks that API, or the stream/batch gate the
benchmark checks, before a benchmark run does.
"""

import dataclasses
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["prequential_b1", "block_h1000"])
def test_smoke_pass_serves_every_arrival_within_the_gate(name):
    w = workloads.StreamWorkload(workloads.SPECS[name]["smoke"], seed=11)
    result, norm, learner = w.one_pass()
    assert result.failed == 0
    assert len(result.latencies) > 0
    assert w.gate(norm, learner) <= workloads.GATE_TOL


@pytest.mark.parametrize("name", ["prequential_b1", "block_h1000"])
def test_smoke_pass_projects_each_arrival_once(name, projections):
    # The set-up projects the initial block twice (init_phase, then the
    # threshold calibration) and each test-set scoring once. Each arrival's
    # update, a single row or a block, reuses predict_raw's projection.
    # The test set has its full size: the smoke size's 50 rows would be
    # recorded, the full workload's 917 or 1196 are not.
    sizes = workloads.SPECS[name]
    spec = dataclasses.replace(sizes["smoke"], test_rows=sizes["full"].test_rows)
    w = workloads.StreamWorkload(spec, seed=11)
    result, _, learner = w.one_pass()
    assert result.failed == 0
    arrivals = len(result.latencies)
    assert len(projections) == arrivals + 2 + workloads.EVAL_REPS
    # The scorings drop the record, so none is alive when the gate runs.
    assert learner._projected is None

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
    # The set-up projects the initial block once: at the smoke sizes it is
    # under model._INIT_RECORD_BYTES, so the threshold calibration reuses
    # init_phase's raw outputs. Each test-set scoring projects once, and
    # each arrival's update, a single row or a block, reuses predict_raw's
    # projection.
    # The test set has its full size: the smoke size's 50 rows would be
    # recorded, the full workload's 917 or 1196 are not.
    sizes = workloads.SPECS[name]
    spec = dataclasses.replace(sizes["smoke"], test_rows=sizes["full"].test_rows)
    w = workloads.StreamWorkload(spec, seed=11)
    result, _, learner = w.one_pass()
    assert result.failed == 0
    arrivals = len(result.latencies)
    assert len(projections) == arrivals + 1 + workloads.EVAL_REPS
    # The scorings drop the record, so none is alive when the gate runs.
    assert learner._projected is None


def test_only_the_yeast_shaped_initial_blocks_are_recorded():
    # init_phase keeps h0 and copies the rows for the calibration's record
    # only under model._INIT_RECORD_BYTES: block_h1000's 12 MB h0, kept,
    # raised its peak RSS by 17 MB.
    from elmstream import model

    def held(spec):
        return 8 * spec.init_block * (spec.hidden + spec.n_features)

    for name in ("prequential_b1", "cli_train_eval"):
        assert held(workloads.SPECS[name]["full"]) <= model._INIT_RECORD_BYTES
    assert held(workloads.SPECS["block_h1000"]["full"]) > model._INIT_RECORD_BYTES

"""The benchmark's in-process streaming path runs on the library as it is.

perfbench pins part of the library's API (``stream_blocks``, ``init_phase``,
``update``, ``decode`` ...). One smoke-size pass of each streaming workload
here catches a change that breaks that API, or the stream/batch gate the
benchmark checks, before a benchmark run does.
"""

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

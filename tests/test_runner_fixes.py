"""Regression tests for harness probe/measurement fixes.

Two long-standing hazards: the launch-size probe (``child_launch_sizes``)
ran a whole timing simulation only to throw it away, and
``RunResult.speedup_over`` silently reported 0× when the reference
measured zero cycles instead of flagging the broken measurement.
"""

import pytest

from repro.benchmarks import get_benchmark
from repro.errors import ReproError
from repro.harness import RunResult, TuningParams, child_launch_sizes
from repro.runtime.host import Device


def test_probe_reads_the_trace_without_timing(monkeypatch):
    bench = get_benchmark("BFS")
    data = bench.build_dataset("KRON", 0.05)
    _, _, device = bench.run(data, "cdp")
    expected = [grid.grid_dim * grid.block_dim
                for grid in device.trace.grids if grid.is_dynamic]

    def no_timing(self):
        raise AssertionError("the launch-size probe ran a timing simulation")

    monkeypatch.setattr(Device, "finish", no_timing)
    assert expected
    assert child_launch_sizes(bench, data) == expected


def _result(total_time):
    return RunResult(benchmark="BFS", dataset="KRON", label="CDP",
                     params=TuningParams(), total_time=total_time,
                     breakdown={}, device_launches=0, host_agg_launches=0,
                     launch_queue_wait=0)


class TestSpeedupOver:
    def test_normal_ratio(self):
        assert _result(100).speedup_over(_result(300)) == 3.0
        assert _result(300).speedup_over(_result(100)) == pytest.approx(1 / 3)

    def test_zero_self_raises(self):
        with pytest.raises(ReproError):
            _result(0).speedup_over(_result(100))

    def test_zero_reference_raises(self):
        """The old behavior silently returned 0.0 here, poisoning geomeans."""
        with pytest.raises(ReproError):
            _result(100).speedup_over(_result(0))

    def test_negative_raises_symmetrically(self):
        with pytest.raises(ReproError):
            _result(-5).speedup_over(_result(100))
        with pytest.raises(ReproError):
            _result(100).speedup_over(_result(-5))

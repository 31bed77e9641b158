"""Run one benchmark variant and collect everything the figures need."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ReproError
from ..runtime.host import Device
from ..sim.config import DeviceConfig
from .variants import TuningParams, variant_to_run


@dataclass
class RunResult:
    """One (benchmark, dataset, variant, params) measurement."""

    benchmark: str
    dataset: str
    label: str
    params: TuningParams
    total_time: int
    breakdown: dict                 # Fig. 10 component cycles
    device_launches: int
    host_agg_launches: int
    launch_queue_wait: int
    outputs: Optional[dict] = None

    def speedup_over(self, other):
        """Speedup of this run relative to *other* (>1 means faster).

        Both runs must have measured positive time; a zero-cycle run is a
        broken measurement on either side, and silently reporting 0× (or
        ∞×) would poison geomeans downstream.
        """
        if self.total_time <= 0 or other.total_time <= 0:
            raise ReproError(
                "speedup undefined for non-positive total_time "
                "(self=%r, other=%r)" % (self.total_time, other.total_time))
        return other.total_time / self.total_time

    def to_dict(self):
        """JSON-able representation (drops raw outputs; see harness.cache)."""
        return {
            "benchmark": self.benchmark,
            "dataset": self.dataset,
            "label": self.label,
            "params": {
                "threshold": self.params.threshold,
                "coarsen_factor": self.params.coarsen_factor,
                "granularity": self.params.granularity,
                "group_blocks": self.params.group_blocks,
            },
            "total_time": int(self.total_time),
            "breakdown": {k: int(v) for k, v in self.breakdown.items()},
            "device_launches": int(self.device_launches),
            "host_agg_launches": int(self.host_agg_launches),
            "launch_queue_wait": int(self.launch_queue_wait),
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            benchmark=payload["benchmark"],
            dataset=payload["dataset"],
            label=payload["label"],
            params=TuningParams(**payload["params"]),
            total_time=payload["total_time"],
            breakdown=dict(payload["breakdown"]),
            device_launches=payload["device_launches"],
            host_agg_launches=payload["host_agg_launches"],
            launch_queue_wait=payload["launch_queue_wait"],
            outputs=None,
        )


def outputs_match(a, b, rtol=1e-9):
    """Cross-variant correctness check on driver outputs.

    NaNs count as equal when they appear in the same positions; if either
    side is floating-point the comparison is tolerance-based regardless of
    the other side's dtype kind.
    """
    if a.keys() != b.keys():
        return False
    for key in a:
        lhs, rhs = a[key], b[key]
        if lhs.shape != rhs.shape:
            return False
        if lhs.dtype.kind == "f" or rhs.dtype.kind == "f":
            if not np.allclose(lhs, rhs, rtol=rtol, atol=1e-12,
                               equal_nan=True):
                return False
        elif not np.array_equal(lhs, rhs):
            return False
    return True


def run_variant(bench, data, label, params=None, device_config=None,
                keep_outputs=False, check_against=None):
    """Compile, execute, and time one benchmark variant.

    :param bench: a benchmark object (see ``repro.benchmarks``).
    :param data: a dataset built by ``bench.build_dataset``.
    :param label: variant label from
        :data:`~repro.harness.variants.VARIANT_LABELS`.
    :param params: :class:`~repro.harness.variants.TuningParams`
        (default: all optimizations off).
    :param device_config: simulated GPU
        (:class:`~repro.sim.config.DeviceConfig`).
    :param keep_outputs: attach the raw driver outputs to the result
        (such results are never cached).
    :param check_against: reference outputs dict; raises
        :class:`~repro.errors.ReproError` on any mismatch — the
        transformations must never change results.
    :returns: a :class:`RunResult`.
    """
    params = params or TuningParams()
    device_config = device_config or DeviceConfig()
    variant, config = variant_to_run(label, params)
    outputs, timing, device = bench.run(data, variant, config,
                                        device_config=device_config)
    if check_against is not None and not outputs_match(check_against,
                                                       outputs):
        raise ReproError(
            "%s on %s with %s produced different outputs than the reference"
            % (label, bench.name, params.describe()))
    component = device.breakdown()
    return RunResult(
        benchmark=bench.name,
        dataset=getattr(data, "name", "?"),
        label=label,
        params=params,
        total_time=timing.total_time,
        breakdown=component.as_dict(),
        device_launches=timing.device_launches,
        host_agg_launches=timing.host_agg_launches,
        launch_queue_wait=timing.launch_queue_wait,
        outputs=outputs if keep_outputs else None,
    )


def geomean(values):
    """Geometric mean of the positive entries of *values* (the paper's
    summary statistic); 0.0 when none are positive.

    >>> round(geomean([2.0, 8.0]), 9)
    4.0
    >>> geomean([])
    0.0
    """
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def child_launch_sizes(bench, data):
    """Thread counts of every dynamic launch the CDP version performs.

    Used to bound the threshold sweep ("not tuned beyond the largest dynamic
    launch size", Sec. VII) and by the guided tuner. The sizes come from
    the functional trace, which no simulated device changes, so the probe
    drives the CDP module and runs no timing simulation.
    """
    device = Device(bench.module_for("cdp"))
    bench.drive(device, data)
    return [grid.grid_dim * grid.block_dim for grid in device.trace.grids
            if grid.is_dynamic]

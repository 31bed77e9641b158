"""Execution-time breakdown accounting (Fig. 10).

The paper decomposes execution time into five components: parent work, child
work, launch, aggregation, and disaggregation. We attribute *work cycles*
(the quantity our two-phase simulation measures exactly):

* ``agg`` / ``disagg`` — cycles of transform-tagged statements;
* ``launch`` — parent-side launch-issue cycles plus the launch-queue
  service/latency cycles and host round-trips for grid-granularity
  aggregation;
* ``parent`` — remaining cycles of host-launched grids;
* ``child`` — remaining cycles of dynamically / host-agg launched grids.

Thresholding moves child cycles into parents (serialization), exactly the
effect Fig. 10 discusses.
"""

from dataclasses import dataclass

from .config import DeviceConfig
from .trace import HOST_AGG


@dataclass
class Breakdown:
    """Cycle totals per Fig. 10 component."""

    parent: int = 0
    child: int = 0
    launch: int = 0
    agg: int = 0
    disagg: int = 0

    COMPONENTS = ("parent", "child", "launch", "agg", "disagg")

    def as_dict(self):
        return {name: getattr(self, name) for name in self.COMPONENTS}


def breakdown(trace, config=None):
    """Compute the Fig. 10 component totals for one run's trace."""
    config = config or DeviceConfig()
    result = Breakdown()
    for grid in trace.grids:
        own = grid.total_cycles - grid.reg_agg - grid.reg_disagg \
            - grid.reg_launch
        result.agg += grid.reg_agg
        result.disagg += grid.reg_disagg
        result.launch += grid.reg_launch
        if grid.is_dynamic:
            result.child += own
        else:
            result.parent += own
        if grid.launch is not None:
            if grid.launch.kind == HOST_AGG:
                result.launch += config.host_agg_overhead
            elif grid.is_dynamic:
                result.launch += (config.launch_service_interval
                                  + config.device_launch_latency)
    return result

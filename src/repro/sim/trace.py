"""Execution trace records shared by the functional engine and the timing
simulation.

The engine (phase 1) runs every kernel on real data and fills these records
with per-block work figures and launch edges; the scheduler (phase 2) replays
them against a :class:`~repro.sim.config.DeviceConfig` to produce times.
"""

from dataclasses import dataclass, field
from typing import Optional

HOST = "host"            # launched by the host driver
DEVICE = "device"        # dynamic (CDP) launch from a parent thread
HOST_AGG = "host_agg"    # grid-granularity aggregated launch via the host


@dataclass
class BlockCost:
    """Work of one thread block, pre-aggregated per warp."""

    max_warp: int = 0     # cycles of the slowest warp
    sum_warp: int = 0     # summed per-warp cycles (throughput bound)


@dataclass
class LaunchRecord:
    """One launch edge: who made the grid runnable, from where, and when."""

    kind: str                          # HOST / DEVICE / HOST_AGG
    grid: "GridRecord"
    parent_grid: Optional["GridRecord"] = None
    parent_block: int = 0
    issue_offset: int = 0              # thread cycles before the launch call


@dataclass
class GridRecord:
    """One executed grid."""

    gid: int
    kernel: str
    grid_dim: int                      # blocks (x dimension)
    block_dim: int                     # threads per block (x dimension)
    blocks: list = field(default_factory=list)        # BlockCost per block
    launch: Optional[LaunchRecord] = None             # incoming edge
    children: list = field(default_factory=list)      # outgoing LaunchRecords
    total_cycles: int = 0              # summed thread cycles
    reg_agg: int = 0                   # cycles tagged aggregation logic
    reg_disagg: int = 0                # cycles tagged disaggregation logic
    reg_launch: int = 0                # parent-side launch-issue cycles

    @property
    def is_dynamic(self):
        return self.launch is not None and self.launch.kind != HOST


@dataclass
class Trace:
    """Everything one benchmark run produced, in host-program order."""

    grids: list = field(default_factory=list)
    host_events: list = field(default_factory=list)  # ("launch", rec) | ("sync",)
    printf_lines: list = field(default_factory=list)

    def new_grid(self, kernel, grid_dim, block_dim):
        record = GridRecord(len(self.grids), kernel, grid_dim, block_dim)
        self.grids.append(record)
        return record

    def total_launches(self, kind=None):
        count = 0
        for grid in self.grids:
            if grid.launch is None:
                continue
            if kind is None or grid.launch.kind == kind:
                count += 1
        return count

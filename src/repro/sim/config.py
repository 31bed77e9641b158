"""Simulated device configuration.

Loosely shaped after a scaled-down Volta V100 (the paper's testbed): many
SMs, bounded resident blocks/threads per SM, and — the part that matters for
dynamic parallelism — a finite-rate grid launch queue. The paper attributes
CDP's slowdown to exactly two mechanisms, both modelled here:

* *congestion*: device-side launches pass through a single launch processor
  with a fixed service interval, so thousands of small launches serialize;
* *underutilization*: a grid occupies block slots proportional to its size,
  so many tiny grids leave SMs idle while still paying per-block overhead.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceConfig:
    """All timing parameters of the simulated GPU (cycle units)."""

    name: str = "sim-v100-mini"
    num_sms: int = 8
    max_blocks_per_sm: int = 4
    max_threads_per_sm: int = 1024
    issue_width: int = 2              # warp-instructions retired per SM cycle,
                                      # shared by all blocks resident on the SM
    block_overhead: int = 80          # schedule/drain cost per thread block
    device_launch_latency: int = 1500  # pipeline latency of one CDP launch
    launch_service_interval: int = 400  # launch-queue service (congestion)
    host_launch_latency: int = 6000   # host-side kernel launch
    host_agg_overhead: int = 9000     # host readback + launch for grid-
                                      # granularity aggregation (Sec. V-A)

    def block_service(self, sum_warp_cycles):
        """SM pipeline time one block's work consumes (throughput bound).

        All blocks resident on an SM share its issue bandwidth, so the
        scheduler accumulates this on a per-SM work counter.
        """
        return self.block_overhead + sum_warp_cycles // self.issue_width

    def block_latency(self, max_warp_cycles):
        """Lower bound on one block's lifetime (its slowest warp)."""
        return self.block_overhead + max_warp_cycles

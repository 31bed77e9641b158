"""Timing-simulation tests on hand-built traces.

These verify the two mechanisms the paper blames for CDP's slowdown —
launch-queue congestion and device underutilization — plus host-event
semantics and grid-granularity host launches.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import (DEVICE, HOST, HOST_AGG, BlockCost, DeviceConfig,
                       GridRecord, LaunchRecord, Trace, simulate)


def make_grid(trace, kernel="k", blocks=1, block_dim=32, warp_cycles=100):
    grid = trace.new_grid(kernel, blocks, block_dim)
    for _ in range(blocks):
        grid.blocks.append(BlockCost(warp_cycles, warp_cycles))
    return grid


def host_launch(trace, grid):
    record = LaunchRecord(kind=HOST, grid=grid)
    grid.launch = record
    trace.host_events.append(("launch", grid))
    return record


def device_launch(trace, parent, grid, block=0, offset=10):
    record = LaunchRecord(kind=DEVICE, grid=grid, parent_grid=parent,
                          parent_block=block, issue_offset=offset)
    grid.launch = record
    parent.children.append(record)
    return record


CFG = DeviceConfig()


class TestBasics:
    def test_single_grid_time(self):
        trace = Trace()
        host_launch(trace, make_grid(trace, warp_cycles=100))
        trace.host_events.append(("sync",))
        result = simulate(trace, CFG)
        expected_min = CFG.host_launch_latency + CFG.block_overhead + 100
        assert result.total_time >= expected_min
        assert result.total_time < expected_min * 2

    def test_parallel_blocks_overlap(self):
        trace1 = Trace()
        host_launch(trace1, make_grid(trace1, blocks=1, warp_cycles=1000))
        trace1.host_events.append(("sync",))
        one = simulate(trace1, CFG).total_time

        trace8 = Trace()
        host_launch(trace8, make_grid(trace8, blocks=8, warp_cycles=1000))
        trace8.host_events.append(("sync",))
        eight = simulate(trace8, CFG).total_time
        # 8 blocks across 8 SMs: far less than 8x one block.
        assert eight < one * 2

    def test_oversubscription_serializes(self):
        slots = CFG.num_sms * CFG.max_blocks_per_sm
        trace = Trace()
        host_launch(trace, make_grid(trace, blocks=slots * 4,
                                     warp_cycles=10000))
        trace.host_events.append(("sync",))
        over = simulate(trace, CFG).total_time

        trace2 = Trace()
        host_launch(trace2, make_grid(trace2, blocks=slots,
                                      warp_cycles=10000))
        trace2.host_events.append(("sync",))
        fits = simulate(trace2, CFG).total_time
        assert over > fits * 2.5

    def test_sm_pipeline_shared_by_resident_blocks(self):
        # Two throughput-bound blocks (many warps, sum >> max) on one SM
        # must take ~2x the pipeline time of one.
        config = DeviceConfig(num_sms=1, max_blocks_per_sm=2,
                              host_launch_latency=0)
        heavy = BlockCost(max_warp=1000, sum_warp=32000)

        trace = Trace()
        grid = trace.new_grid("k", 2, 1024)
        grid.blocks = [heavy, heavy]
        host_launch(trace, grid)
        trace.host_events.append(("sync",))
        two = simulate(trace, config).total_time

        trace1 = Trace()
        grid1 = trace1.new_grid("k", 1, 1024)
        grid1.blocks = [heavy]
        host_launch(trace1, grid1)
        trace1.host_events.append(("sync",))
        one = simulate(trace1, config).total_time
        assert two > one * 1.8

    def test_grid_timings_recorded(self):
        trace = Trace()
        grid = make_grid(trace)
        host_launch(trace, grid)
        trace.host_events.append(("sync",))
        result = simulate(trace, CFG)
        timing = result.grid_timings[grid.gid]
        assert timing.first_start >= timing.ready
        assert timing.finish > timing.first_start


class TestLaunchQueue:
    def _congestion_time(self, num_children):
        trace = Trace()
        parent = make_grid(trace, blocks=1, warp_cycles=500)
        host_launch(trace, parent)
        for i in range(num_children):
            child = make_grid(trace, kernel="c", warp_cycles=50)
            device_launch(trace, parent, child, offset=10 + i)
        trace.host_events.append(("sync",))
        return simulate(trace, CFG)

    def test_congestion_grows_linearly_with_launches(self):
        few = self._congestion_time(5)
        many = self._congestion_time(100)
        added = many.total_time - few.total_time
        assert added >= 90 * CFG.launch_service_interval

    def test_queue_wait_accounted(self):
        result = self._congestion_time(50)
        assert result.launch_queue_wait > 0
        assert result.device_launches == 50

    def test_child_ready_after_latency(self):
        trace = Trace()
        parent = make_grid(trace, blocks=1, warp_cycles=500)
        host_launch(trace, parent)
        child = make_grid(trace, kernel="c")
        device_launch(trace, parent, child, offset=100)
        trace.host_events.append(("sync",))
        result = simulate(trace, CFG)
        parent_start = result.grid_timings[parent.gid].first_start
        child_ready = result.grid_timings[child.gid].ready
        assert child_ready >= parent_start + 100 \
            + CFG.launch_service_interval + CFG.device_launch_latency

    def test_launch_offset_clamped_to_block_lifetime(self):
        # Engine offsets always fall inside the block, so only a hand-built
        # trace reaches the clamp: a launch cannot leave after its block.
        config = DeviceConfig(host_launch_latency=0)
        trace = Trace()
        parent = make_grid(trace, blocks=1, warp_cycles=100)
        host_launch(trace, parent)
        child = make_grid(trace, kernel="c")
        device_launch(trace, parent, child, offset=10 ** 6)
        trace.host_events.append(("sync",))
        result = simulate(trace, config)
        assert result.grid_timings[parent.gid].finish \
            == config.block_latency(100)
        assert result.grid_timings[child.gid].ready \
            == config.block_latency(100) + config.launch_service_interval \
            + config.device_launch_latency

    def test_child_can_start_before_parent_finishes(self):
        trace = Trace()
        parent = make_grid(trace, blocks=1, warp_cycles=100000)
        host_launch(trace, parent)
        child = make_grid(trace, kernel="c", warp_cycles=10)
        device_launch(trace, parent, child, offset=5)
        trace.host_events.append(("sync",))
        result = simulate(trace, CFG)
        assert result.grid_timings[child.gid].finish \
            < result.grid_timings[parent.gid].finish


class TestHostSemantics:
    def test_sequential_host_launches(self):
        trace = Trace()
        a = make_grid(trace, warp_cycles=10)
        b = make_grid(trace, warp_cycles=10)
        host_launch(trace, a)
        host_launch(trace, b)
        trace.host_events.append(("sync",))
        result = simulate(trace, CFG)
        assert result.grid_timings[b.gid].ready \
            >= result.grid_timings[a.gid].ready + CFG.host_launch_latency

    def test_host_agg_waits_for_parent_grid(self):
        trace = Trace()
        parent = make_grid(trace, blocks=4, warp_cycles=5000)
        host_launch(trace, parent)
        agg_child = make_grid(trace, kernel="agg", warp_cycles=10)
        record = LaunchRecord(kind=HOST_AGG, grid=agg_child,
                              parent_grid=parent)
        agg_child.launch = record
        trace.host_events.append(("sync",))
        result = simulate(trace, CFG)
        assert result.grid_timings[agg_child.gid].ready \
            >= result.grid_timings[parent.gid].finish \
            + CFG.host_agg_overhead
        assert result.host_agg_launches == 1

    def test_unknown_host_event_raises(self):
        trace = Trace()
        trace.host_events.append(("warp_drive",))
        with pytest.raises(SimulationError):
            simulate(trace, CFG)

    def test_total_time_covers_all_grids(self):
        trace = Trace()
        grids = [make_grid(trace, warp_cycles=100) for _ in range(3)]
        for grid in grids:
            host_launch(trace, grid)
        trace.host_events.append(("sync",))
        result = simulate(trace, CFG)
        assert result.total_time >= max(
            result.grid_timings[g.gid].finish for g in grids)

"""Event-driven timing simulation (phase 2), vectorized.

Replays a :class:`~repro.sim.trace.Trace` against a
:class:`~repro.sim.config.DeviceConfig`:

* blocks of ready grids are placed FIFO onto SMs with per-SM block-slot and
  thread capacities; excess blocks wait — small grids underutilize the
  device because they cannot fill the slots;
* each dynamic launch leaves its parent block at its recorded thread-cycle
  offset, then passes through a single launch processor with a fixed service
  interval — many concurrent launches queue up, reproducing the congestion
  the paper identifies as CDP's first-order cost;
* grid-granularity aggregated launches become ready only after the parent
  grid completes plus a host round-trip (Sec. V-A's CPU involvement);
* host events run sequentially; ``sync`` waits for every grid launched so
  far (and all transitively launched descendants).

This implementation batches the hot inner loops that used to run one
Python object at a time (the per-block/per-event oracle is preserved in
:mod:`repro.sim.scheduler_ref` and must stay bit-identical — the golden
parity suite enforces it):

* per-grid block latencies and SM service cycles are computed as NumPy
  array expressions over the trace's block costs, once, instead of two
  method calls per placement;
* the pending-block queue holds one *range* per ready grid rather than
  one tuple per block, so a grid of B blocks costs O(1) to enqueue;
* SM occupancy and per-grid timing live in flat arrays indexed by SM and
  grid id; the :class:`GridTiming` objects are materialized once at the
  end.
"""

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from .config import DeviceConfig
from .trace import HOST_AGG

_GRID_READY, _BLOCK_FINISH, _LAUNCH_READY = 0, 1, 2


@dataclass
class GridTiming:
    ready: int = 0
    first_start: int = -1
    finish: int = 0
    blocks_done: int = 0


@dataclass
class TimingResult:
    """Output of the timing simulation."""

    total_time: int
    grid_timings: dict                  # gid -> GridTiming
    launch_queue_wait: int              # cycles launches spent queued
    device_launches: int
    host_agg_launches: int

    def grid_finish(self, grid):
        return self.grid_timings[grid.gid].finish


class Simulator:
    """One-shot simulator; use :func:`simulate`."""

    def __init__(self, trace, config):
        self.trace = trace
        self.config = config
        self.events = []
        self._seq = 0
        num_sms = config.num_sms
        self.sm_free_blocks = [config.max_blocks_per_sm] * num_sms
        self.sm_free_threads = [config.max_threads_per_sm] * num_sms
        self.sm_work_free = [0] * num_sms   # when each SM's pipeline drains
        self.pending = deque()              # [grid, next block index]
        self.launch_server_free = 0
        self.launch_queue_wait = 0
        self.device_launches = 0
        self.host_agg_launches = 0
        self.outstanding = 0                # grids injected but not finished

        grids = trace.grids
        n = len(grids)
        if any(grid.gid != i for i, grid in enumerate(grids)):
            raise SimulationError("trace grid ids must be dense and ordered")
        # Flat per-grid timing state, indexed by gid; GridTiming objects
        # are only built once, in run().
        self.g_ready = [0] * n
        self.g_first_start = [-1] * n
        self.g_finish = [0] * n
        self.g_blocks_done = [0] * n
        # Vectorized block timing: latency (slowest warp) and SM pipeline
        # service cycles for EVERY block of every grid, in one flat array
        # pass over the whole trace instead of two DeviceConfig calls per
        # placement. g_off[gid] locates a grid's slice in the flat lists
        # (flat because many traces are thousands of 1–2 block child
        # grids, where per-grid arrays would cost more than they save).
        self.g_threads = [0] * n            # thread-slot need per block
        self.g_off = [0] * n
        max_threads = config.max_threads_per_sm
        total = 0
        for grid in grids:
            gid = grid.gid
            self.g_threads[gid] = min(grid.block_dim, max_threads)
            self.g_off[gid] = total
            total += len(grid.blocks)
        if total:
            max_warp = np.fromiter(
                (b.max_warp for g in grids for b in g.blocks),
                dtype=np.int64, count=total)
            sum_warp = np.fromiter(
                (b.sum_warp for g in grids for b in g.blocks),
                dtype=np.int64, count=total)
            self.flat_lat = config.block_latency(max_warp).tolist()
            self.flat_svc = config.block_service(sum_warp).tolist()
        else:
            self.flat_lat = []
            self.flat_svc = []
        # Children index: dynamic launches fire when their parent *block*
        # starts (offset known then); host_agg fire at parent grid finish.
        self.block_launches = [None] * n    # gid -> {block -> [LaunchRecord]}
        self.finish_launches = {}           # parent gid -> [LaunchRecord]
        for grid in grids:
            for rec in grid.children:
                per_block = self.block_launches[grid.gid]
                if per_block is None:
                    per_block = self.block_launches[grid.gid] = {}
                per_block.setdefault(rec.parent_block, []).append(rec)
        for grid in grids:
            launch = grid.launch
            if launch is not None and launch.kind == HOST_AGG:
                self.finish_launches.setdefault(
                    launch.parent_grid.gid, []).append(launch)

    # -- event machinery -------------------------------------------------------

    def _push(self, time, kind, payload):
        self._seq += 1
        heapq.heappush(self.events, (time, self._seq, kind, payload))

    def run(self):
        """Process host events; returns a :class:`TimingResult`."""
        host_time = 0
        for event in self.trace.host_events:
            if event[0] == "launch":
                grid = event[1]
                host_time += self.config.host_launch_latency
                self._inject(grid, host_time)
            elif event[0] == "sync":
                host_time = max(host_time, self._drain())
            else:
                raise SimulationError("unknown host event %r" % (event[0],))
        host_time = max(host_time, self._drain())
        timings = {}
        for grid in self.trace.grids:
            gid = grid.gid
            timings[gid] = GridTiming(self.g_ready[gid],
                                      self.g_first_start[gid],
                                      self.g_finish[gid],
                                      self.g_blocks_done[gid])
        return TimingResult(
            total_time=host_time,
            grid_timings=timings,
            launch_queue_wait=self.launch_queue_wait,
            device_launches=self.device_launches,
            host_agg_launches=self.host_agg_launches)

    def _inject(self, grid, ready_time):
        gid = grid.gid
        self.g_ready[gid] = ready_time
        self.outstanding += 1
        if not grid.blocks:
            self.g_finish[gid] = ready_time
            self.outstanding -= 1
            self._on_grid_finish(grid, ready_time)
            return
        self._push(ready_time, _GRID_READY, grid)

    def _drain(self):
        """Run the event loop to exhaustion; returns the last finish time."""
        last = 0
        events = self.events
        while events:
            time, _, kind, payload = heapq.heappop(events)
            if time > last:
                last = time
            if kind == _BLOCK_FINISH:
                self._on_block_finish(time, payload)
            elif kind == _GRID_READY:
                self.pending.append([payload, 0])
                self._schedule(time)
            elif kind == _LAUNCH_READY:
                self._inject(payload.grid, time)
            else:
                raise SimulationError("unknown event %r" % kind)
        if self.outstanding != 0:
            raise SimulationError(
                "simulation drained with %d unfinished grids"
                % self.outstanding)
        return last

    # -- scheduling --------------------------------------------------------------

    def _schedule(self, time):
        pending = self.pending
        free_blocks = self.sm_free_blocks
        free_threads = self.sm_free_threads
        work_free = self.sm_work_free
        num_sms = len(free_blocks)
        flat_lat = self.flat_lat
        flat_svc = self.flat_svc
        while pending:
            entry = pending[0]
            grid = entry[0]
            gid = grid.gid
            need = self.g_threads[gid]
            # First SM with a block slot, room for the block's threads,
            # and the strictly largest thread headroom (FIFO head only:
            # a head block that fits nowhere blocks the queue).
            best = -1
            best_free = -1
            for sm in range(num_sms):
                if free_blocks[sm] <= 0:
                    continue
                threads = free_threads[sm]
                if threads < need or threads <= best_free:
                    continue
                best, best_free = sm, threads
            if best < 0:
                return
            index = entry[1]
            entry[1] = index + 1
            if entry[1] == len(grid.blocks):
                pending.popleft()
            free_blocks[best] -= 1
            free_threads[best] = best_free - need
            if self.g_first_start[gid] < 0:
                self.g_first_start[gid] = time
            # Blocks resident on one SM share its issue pipeline: the block
            # completes when both its own slowest warp has retired and the
            # SM has pushed the block's summed work through the pipeline.
            flat = self.g_off[gid] + index
            busy = work_free[best]
            busy = (busy if busy > time else time) + flat_svc[flat]
            work_free[best] = busy
            finish = time + flat_lat[flat]
            if busy > finish:
                finish = busy
            per_block = self.block_launches[gid]
            if per_block is not None:
                recs = per_block.get(index)
                if recs:
                    self._emit_block_launches(recs, time, finish - time)
            self._push(finish, _BLOCK_FINISH, (grid, best))

    def _emit_block_launches(self, recs, start, duration):
        """Push one block's dynamic launches through the single-server
        launch queue (fixed service interval), accumulating queue wait."""
        interval = self.config.launch_service_interval
        latency = self.config.device_launch_latency
        self.device_launches += len(recs)
        server_free = self.launch_server_free
        wait = 0
        for rec in recs:
            offset = rec.issue_offset
            arrival = start + (offset if offset < duration else duration)
            ready = (server_free if server_free > arrival else arrival) \
                + interval
            wait += ready - arrival - interval
            server_free = ready
            self._push(ready + latency, _LAUNCH_READY, rec)
        self.launch_server_free = server_free
        self.launch_queue_wait += wait

    def _on_block_finish(self, time, payload):
        grid, sm = payload
        gid = grid.gid
        self.sm_free_blocks[sm] += 1
        self.sm_free_threads[sm] += self.g_threads[gid]
        done = self.g_blocks_done[gid] + 1
        self.g_blocks_done[gid] = done
        if done == len(grid.blocks):
            self.g_finish[gid] = time
            self.outstanding -= 1
            self._on_grid_finish(grid, time)
        self._schedule(time)

    def _on_grid_finish(self, grid, time):
        recs = self.finish_launches.get(grid.gid)
        if recs:
            ready = time + self.config.host_agg_overhead
            for rec in recs:
                self.host_agg_launches += 1
                self._push(ready, _LAUNCH_READY, rec)


def simulate(trace, config=None):
    """Replay *trace* on *config* (default :class:`DeviceConfig`)."""
    return Simulator(trace, config or DeviceConfig()).run()

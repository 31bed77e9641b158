"""Event-driven timing simulation (phase 2).

Replays a :class:`~repro.sim.trace.Trace` against a
:class:`~repro.sim.config.DeviceConfig`:

* blocks of ready grids are placed FIFO onto SMs with per-SM block-slot and
  thread capacities, each on the SM with the most free threads (the first
  such SM on ties); excess blocks wait — small grids underutilize the
  device because they cannot fill the slots;
* each dynamic launch leaves its parent block at its recorded thread-cycle
  offset, then passes through a single launch processor with a fixed service
  interval — many concurrent launches queue up, reproducing the congestion
  the paper identifies as CDP's first-order cost;
* grid-granularity aggregated launches become ready only after the parent
  grid completes plus a host round-trip (Sec. V-A's CPU involvement);
* host events run sequentially; ``sync`` waits for every grid launched so
  far (and all transitively launched descendants).

``tests/test_timing_golden.py`` replays stored benchmark traces through
this loop and pins every result, so any change to the model is deliberate.
"""

import heapq
from collections import deque
from dataclasses import dataclass

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


class Simulator:
    """One-shot simulator; use :func:`simulate`."""

    def __init__(self, trace, config):
        self.trace = trace
        self.config = config
        self.events = []
        self._seq = 0
        # Per-SM state as flat lists: free block slots, free threads, and
        # when the SM's shared issue pipeline drains.
        self.sm_free_blocks = [config.max_blocks_per_sm] * config.num_sms
        self.sm_free_threads = [config.max_threads_per_sm] * config.num_sms
        self.sm_work_free = [0] * config.num_sms
        self.pending = deque()          # [grid, next block, threads/block]
        self.timings = {grid.gid: GridTiming() for grid in trace.grids}
        self.launch_server_free = 0
        self.launch_queue_wait = 0
        self.device_launches = 0
        self.host_agg_launches = 0
        self.outstanding = 0            # grids injected but not finished
        # Dynamic launches fire when their parent *block* starts (offset
        # known then); host_agg launches fire at parent grid finish.
        self.block_launches = {}        # parent gid -> {block: [LaunchRecord]}
        self.finish_launches = {}       # parent gid -> [LaunchRecord]
        for grid in trace.grids:
            for rec in grid.children:
                self.block_launches.setdefault(grid.gid, {}).setdefault(
                    rec.parent_block, []).append(rec)
            launch = grid.launch
            if launch is not None and launch.kind == HOST_AGG:
                self.finish_launches.setdefault(
                    launch.parent_grid.gid, []).append(launch)

    def _push(self, time, kind, payload):
        self._seq += 1
        heapq.heappush(self.events, (time, self._seq, kind, payload))

    def run(self):
        """Process host events; returns a :class:`TimingResult`."""
        host_time = 0
        for event in self.trace.host_events:
            if event[0] == "launch":
                host_time += self.config.host_launch_latency
                self._inject(event[1], host_time)
            elif event[0] == "sync":
                host_time = max(host_time, self._drain())
            else:
                raise SimulationError("unknown host event %r" % (event[0],))
        host_time = max(host_time, self._drain())
        return TimingResult(host_time, self.timings, self.launch_queue_wait,
                            self.device_launches, self.host_agg_launches)

    def _inject(self, grid, time):
        timing = self.timings[grid.gid]
        timing.ready = time
        if grid.blocks:
            self.outstanding += 1
            self._push(time, _GRID_READY, grid)
        else:
            timing.finish = time
            self._on_grid_finish(grid, time)

    def _drain(self):
        """Run the event loop to exhaustion; returns the last event time."""
        last = 0
        events = self.events
        max_threads = self.config.max_threads_per_sm
        while events:
            time, _, kind, payload = heapq.heappop(events)
            if time > last:
                last = time
            if kind == _BLOCK_FINISH:
                self._on_block_finish(time, *payload)
            elif kind == _GRID_READY:
                self.pending.append(
                    [payload, 0, min(payload.block_dim, max_threads)])
                self._schedule(time)
            elif kind == _LAUNCH_READY:
                self._inject(payload.grid, time)
            else:
                raise SimulationError("unknown event %r" % (kind,))
        if self.outstanding != 0:
            raise SimulationError(
                "simulation drained with %d unfinished grids"
                % self.outstanding)
        return last

    def _schedule(self, time):
        """Place blocks from the head of the queue until one fits nowhere."""
        pending = self.pending
        free_blocks = self.sm_free_blocks
        free_threads = self.sm_free_threads
        work_free = self.sm_work_free
        config = self.config
        sms = range(len(free_blocks))
        while pending:
            entry = pending[0]
            grid, index, need = entry
            best = -1
            best_free = -1
            for sm in sms:
                threads = free_threads[sm]
                if free_blocks[sm] > 0 and threads >= need \
                        and threads > best_free:
                    best, best_free = sm, threads
            if best < 0:
                return
            if index + 1 == len(grid.blocks):
                pending.popleft()
            else:
                entry[1] = index + 1
            free_blocks[best] -= 1
            free_threads[best] = best_free - need
            timing = self.timings[grid.gid]
            if timing.first_start < 0:
                timing.first_start = time
            cost = grid.blocks[index]
            # Blocks resident on one SM share its issue pipeline: the block
            # completes when both its own slowest warp has retired and the
            # SM has pushed the block's summed work through the pipeline.
            busy = work_free[best]
            busy = (busy if busy > time else time) \
                + config.block_service(cost.sum_warp)
            work_free[best] = busy
            finish = time + config.block_latency(cost.max_warp)
            if busy > finish:
                finish = busy
            launches = self.block_launches.get(grid.gid)
            if launches is not None and index in launches:
                self._launch(launches[index], time, finish - time)
            self._push(finish, _BLOCK_FINISH, (grid, best, need))

    def _launch(self, recs, start, duration):
        """Send one block's dynamic launches through the launch server."""
        interval = self.config.launch_service_interval
        for rec in recs:
            arrival = start + min(rec.issue_offset, duration)
            self.device_launches += 1
            ready = max(arrival, self.launch_server_free) + interval
            self.launch_queue_wait += ready - arrival - interval
            self.launch_server_free = ready
            self._push(ready + self.config.device_launch_latency,
                       _LAUNCH_READY, rec)

    def _on_block_finish(self, time, grid, sm, need):
        self.sm_free_blocks[sm] += 1
        self.sm_free_threads[sm] += need
        timing = self.timings[grid.gid]
        timing.blocks_done += 1
        if timing.blocks_done == len(grid.blocks):
            timing.finish = time
            self.outstanding -= 1
            self._on_grid_finish(grid, time)
        if self.pending:
            self._schedule(time)

    def _on_grid_finish(self, grid, time):
        for rec in self.finish_launches.get(grid.gid, ()):
            self.host_agg_launches += 1
            self._push(time + self.config.host_agg_overhead, _LAUNCH_READY,
                       rec)


def simulate(trace, config=None):
    """Replay *trace* on *config* (default :class:`DeviceConfig`)."""
    return Simulator(trace, config or DeviceConfig()).run()

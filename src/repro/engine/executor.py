"""Functional execution of kernels (phase 1 of the two-phase simulation).

Grids run on real data: threads execute sequentially (block by block), so
atomics need no locking and the paired-counter update of Fig. 7 is trivially
consistent. A barrier-free kernel of a 1-D program is compiled to a block
function (``b_<name>``, see :mod:`repro.engine.codegen`) that runs every
thread of one block and returns the block's warp costs, so the executor
makes one call per block. Kernels containing ``__syncthreads()`` are
compiled to per-thread generators; :func:`_run_block_barrier` rotates all
threads of a block between barriers and re-synchronizes their cycle
counters to the slowest arrival — threads that already returned simply
stop participating (this makes the ``if (threadIdx.x < _bDim)``
disaggregation guard safe). Kernels of programs that read the y/z indices
run one call per thread in :func:`_run_grid_nd`.

Dynamic launches are queued and executed breadth-first after the launching
grid completes — CUDA guarantees children see their parent's prior writes,
and no benchmark relies on stronger parent/child memory interleaving.
"""

from collections import deque
from functools import partial

from ..errors import RuntimeLaunchError, SimulationError
from ..sim.trace import DEVICE, BlockCost, LaunchRecord
from .builtins import (atomic_add, atomic_and, atomic_cas, atomic_exch,
                       atomic_max, atomic_min, atomic_or, atomic_sub,
                       identity)
from .values import Dim3, alloc_for_type
from ..minicuda.ast import Type


class ExecContext:
    """The ``_rt`` object generated kernel code talks to.

    One instance exists per *grid execution*; per-thread state (``tc``) is
    reset before each thread, by a block function or the executor's
    per-thread loops.
    """

    __slots__ = ("module", "trace", "cost_model", "grid_record",
                 "current_block", "tc", "reg_agg", "reg_disagg",
                 "reg_launch", "pending", "_shared")

    def __init__(self, module, trace, cost_model, grid_record):
        self.module = module
        self.trace = trace
        self.cost_model = cost_model
        self.grid_record = grid_record
        self.current_block = 0
        self.tc = 0
        self.reg_agg = 0
        self.reg_disagg = 0
        self.reg_launch = 0
        self.pending = []
        self._shared = {}

    def begin_block(self, block_index):
        """Reset per-block state (called by the executor per thread block)."""
        self.current_block = block_index
        self._shared.clear()

    def shared_array(self, name, size, type_name):
        """The block's __shared__ array: allocated by the first thread to
        reach the declaration, shared by the rest of the block."""
        array = self._shared.get(name)
        if array is None:
            zero = 0.0 if type_name in ("float", "double") else 0
            array = [zero] * int(size)
            self._shared[name] = array
        return array

    # -- dynamic launches --------------------------------------------------

    def launch(self, kernel, grid_dim, block_dim, args, cycles):
        issue = self.cost_model.launch_issue
        self.reg_launch += issue
        self.pending.append(
            (kernel, grid_dim, block_dim, args, self.current_block,
             cycles + self.tc))
        return cycles + issue

    # -- atomics: engine.builtins' read-modify-writes ----------------------
    #
    # *ptr* is a Ptr, or a __shared__ or local array (a plain list, whose
    # stores keep their values) passed on through a pointer variable.

    def atomic_add(self, ptr, index, value):
        if type(ptr) is list:
            return atomic_add(ptr, index, identity, value)
        return atomic_add(
            ptr.array, ptr.offset + index, ptr.convert or identity, value)

    def atomic_sub(self, ptr, index, value):
        if type(ptr) is list:
            return atomic_sub(ptr, index, identity, value)
        return atomic_sub(
            ptr.array, ptr.offset + index, ptr.convert or identity, value)

    def atomic_max(self, ptr, index, value):
        if type(ptr) is list:
            return atomic_max(ptr, index, identity, value)
        return atomic_max(
            ptr.array, ptr.offset + index, ptr.convert or identity, value)

    def atomic_min(self, ptr, index, value):
        if type(ptr) is list:
            return atomic_min(ptr, index, identity, value)
        return atomic_min(
            ptr.array, ptr.offset + index, ptr.convert or identity, value)

    def atomic_cas(self, ptr, index, compare, value):
        if type(ptr) is list:
            return atomic_cas(ptr, index, identity, compare, value)
        return atomic_cas(
            ptr.array, ptr.offset + index, ptr.convert or identity,
            compare, value)

    def atomic_exch(self, ptr, index, value):
        if type(ptr) is list:
            return atomic_exch(ptr, index, identity, value)
        return atomic_exch(
            ptr.array, ptr.offset + index, ptr.convert or identity, value)

    def atomic_or(self, ptr, index, value):
        if type(ptr) is list:
            return atomic_or(ptr, index, identity, value)
        return atomic_or(
            ptr.array, ptr.offset + index, ptr.convert or identity, value)

    def atomic_and(self, ptr, index, value):
        if type(ptr) is list:
            return atomic_and(ptr, index, identity, value)
        return atomic_and(
            ptr.array, ptr.offset + index, ptr.convert or identity, value)

    # -- misc ----------------------------------------------------------------

    def device_malloc(self, count, type_name):
        return alloc_for_type(Type(type_name), max(int(count), 1))

    def printf(self, fmt, *args):
        try:
            line = fmt % args if args else fmt
        except (TypeError, ValueError):
            line = fmt + " " + " ".join(repr(a) for a in args)
        self.trace.printf_lines.append(line)


def run_grid(module, trace, kernel_name, grid_dim, block_dim, args,
             launch_record=None, cost_model=None):
    """Execute one grid functionally and recursively execute its dynamic
    children. Returns the grid's :class:`~repro.sim.trace.GridRecord`."""
    cost_model = cost_model or module.cost_model
    queue = deque()
    root = _execute_single(module, trace, kernel_name, Dim3.of(grid_dim),
                           Dim3.of(block_dim), args, launch_record,
                           cost_model, queue)
    while queue:
        (kernel, gdim, bdim, kargs, parent_rec, parent_block, offset) = \
            queue.popleft()
        child_launch = LaunchRecord(
            kind=DEVICE, grid=None, parent_grid=parent_rec,
            parent_block=parent_block, issue_offset=offset)
        child = _execute_single(module, trace, kernel, gdim, bdim, kargs,
                                child_launch, cost_model, queue)
        child_launch.grid = child
        parent_rec.children.append(child_launch)
    return root


def _execute_single(module, trace, kernel_name, grid_dim, block_dim, args,
                    launch_record, cost_model, queue):
    """Run one grid. *grid_dim* and *block_dim* are Dim3s that no one else
    holds: ``run_grid`` copies the caller's, and a launch site builds fresh
    ones for each child."""
    kernel = module.kernel(kernel_name)
    if grid_dim.total <= 0 or block_dim.total <= 0:
        raise RuntimeLaunchError(
            "launch of %r with empty configuration (%r, %r)"
            % (kernel_name, grid_dim, block_dim))

    record = trace.new_grid(kernel_name, grid_dim.total, block_dim.total)
    record.launch = launch_record
    rt = ExecContext(module, trace, cost_model, record)

    one_dim = (grid_dim.total == grid_dim.x
               and block_dim.total == block_dim.x
               and not kernel.multi_dim)
    if one_dim:
        run_block = kernel.fn
        if not kernel.fused:
            run_block = partial(_run_block_barrier, run_block)
        threads = range(block_dim.x)
        for bix in range(grid_dim.x):
            rt.begin_block(bix)
            max_warp, sum_warp, total = run_block(
                rt, bix, threads, grid_dim, block_dim, *args)
            record.blocks.append(BlockCost(max_warp, sum_warp))
            record.total_cycles += total
    else:
        _run_grid_nd(kernel, rt, grid_dim, block_dim, args, record)

    record.reg_agg = rt.reg_agg
    record.reg_disagg = rt.reg_disagg
    record.reg_launch = rt.reg_launch
    for (kernel2, gdim2, bdim2, args2, pblock, offset) in rt.pending:
        queue.append((kernel2, gdim2, bdim2, args2, record, pblock, offset))
    return record


_WARP = 32


def _block_coords(gdim):
    """Yield (linear index, bx, by, bz) for every block, x fastest."""
    linear = 0
    for bz in range(gdim.z):
        for by in range(gdim.y):
            for bx in range(gdim.x):
                yield linear, bx, by, bz
                linear += 1


def _thread_coords(bdim):
    """Yield (tx, ty, tz) in CUDA linearization order (x fastest)."""
    for tz in range(bdim.z):
        for ty in range(bdim.y):
            for tx in range(bdim.x):
                yield tx, ty, tz


def _run_grid_nd(kernel, rt, gdim, bdim, args, record):
    """General multi-dimensional grid execution.

    Kernels compiled with the 3-D calling convention receive all six index
    components; 1-D-convention kernels launched with a multi-dimensional
    configuration still execute every (y, z) copy but only see the x
    components — matching hardware, where unused indices simply go unread.
    A block function gets the block's x indices in linear thread order, so
    its warps form over the linearized block.
    """
    fn = kernel.fn
    if kernel.fused:
        threads = [tx for tx, _, _ in _thread_coords(bdim)]
        for linear, bx, _, _ in _block_coords(gdim):
            rt.begin_block(linear)
            max_warp, sum_warp, total = fn(rt, bx, threads, gdim, bdim,
                                           *args)
            record.blocks.append(BlockCost(max_warp, sum_warp))
            record.total_cycles += total
        return

    def call(bx, by, bz):
        if kernel.multi_dim:
            return [fn(rt, bx, by, bz, tx, ty, tz, gdim, bdim, *args)
                    for tx, ty, tz in _thread_coords(bdim)]
        return [fn(rt, bx, tx, gdim, bdim, *args)
                for tx, ty, tz in _thread_coords(bdim)]

    for linear, bx, by, bz in _block_coords(gdim):
        rt.begin_block(linear)
        if kernel.has_barrier:
            max_warp, sum_warp, total = _rotate_generators(
                rt, call(bx, by, bz), bdim.total)
        else:
            cycles = []
            total = 0
            for tx, ty, tz in _thread_coords(bdim):
                rt.tc = 0
                c = fn(rt, bx, by, bz, tx, ty, tz, gdim, bdim, *args)
                c += rt.tc
                cycles.append(c)
                total += c
            max_warp, sum_warp = _warp_costs(cycles)
        record.blocks.append(BlockCost(max_warp, sum_warp))
        record.total_cycles += total


def _warp_costs(cycles):
    max_warp = 0
    sum_warp = 0
    for base in range(0, len(cycles), _WARP):
        peak = max(cycles[base:base + _WARP])
        sum_warp += peak
        if peak > max_warp:
            max_warp = peak
    return max_warp, sum_warp


def _rotate_generators(rt, generators, num_threads):
    """Advance a block's thread generators between barriers (shared by the
    1-D barrier path and the multi-dimensional path)."""
    cycles = [0] * num_threads
    resume_value = {}
    active = list(enumerate(generators))
    rounds = 0
    while active:
        rounds += 1
        if rounds > 100000:
            raise SimulationError("barrier rotation did not converge")
        arrived = []
        for tid, gen in active:
            rt.tc = 0
            try:
                if tid in resume_value:
                    yielded = gen.send(resume_value[tid])
                else:
                    yielded = next(gen)
                arrived.append((tid, gen, yielded + rt.tc))
            except StopIteration as stop:
                cycles[tid] = (stop.value or 0) + rt.tc
        if not arrived:
            break
        barrier_time = max(c for _, _, c in arrived)
        active = []
        for tid, gen, _ in arrived:
            resume_value[tid] = barrier_time
            cycles[tid] = barrier_time
            active.append((tid, gen))
    max_warp, sum_warp = _warp_costs(cycles)
    return max_warp, sum_warp, sum(cycles)


def _run_block_barrier(fn, rt, bix, threads, gdim, bdim, *args):
    """Barrier block: rotate thread generators between __syncthreads()."""
    generators = [fn(rt, bix, tix, gdim, bdim, *args) for tix in threads]
    return _rotate_generators(rt, generators, len(threads))

"""Functional execution of kernels (phase 1 of the two-phase simulation).

Grids run on real data: threads execute sequentially (block by block), so
atomics need no locking and the paired-counter update of Fig. 7 is trivially
consistent. Every kernel compiles to a block function ``b_<name>`` (see
:mod:`repro.engine.codegen`) that runs one whole block and returns its warp
costs, so the executor makes one call per block; a barrier kernel's rotates
its threads' generators (:func:`repro.engine.builtins.rotate`). Blocks and
threads are x indices in linear order, or ``(x, y, z)`` triples for a
kernel of a 3-D program.

Dynamic launches are queued and executed breadth-first after the launching
grid completes — CUDA guarantees children see their parent's prior writes,
and no benchmark relies on stronger parent/child memory interleaving.
"""

from collections import deque

from ..errors import RuntimeLaunchError
from ..sim.trace import DEVICE, BlockCost, LaunchRecord
from .builtins import (atomic_add, atomic_and, atomic_cas, atomic_exch,
                       atomic_max, atomic_min, atomic_or, atomic_sub,
                       identity)
from .values import Dim3, alloc_for_type
from ..minicuda.ast import Type


class ExecContext:
    """The ``_rt`` object generated kernel code talks to.

    One instance exists per *grid execution*; per-thread state (``tc``) is
    reset by the block function before each thread (and by
    :func:`~repro.engine.builtins.rotate` before each resumption).
    """

    __slots__ = ("trace", "cost_model", "current_block", "tc", "reg_agg",
                 "reg_disagg", "reg_launch", "pending", "_shared")

    def __init__(self, trace, cost_model):
        self.trace = trace
        self.cost_model = cost_model
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
    if min(grid_dim.x, grid_dim.y, grid_dim.z,
           block_dim.x, block_dim.y, block_dim.z) <= 0:
        raise RuntimeLaunchError(
            "launch of %r with an empty or negative configuration (%r, %r)"
            % (kernel_name, grid_dim, block_dim))

    record = trace.new_grid(kernel_name, grid_dim.total, block_dim.total)
    record.launch = launch_record
    rt = ExecContext(trace, cost_model)
    threads = _indices(block_dim, kernel.multi_dim)
    for linear, block in enumerate(_indices(grid_dim, kernel.multi_dim)):
        rt.begin_block(linear)
        max_warp, sum_warp, total = kernel.fn(
            rt, block, threads, grid_dim, block_dim, *args)
        record.blocks.append(BlockCost(max_warp, sum_warp))
        record.total_cycles += total

    record.reg_agg = rt.reg_agg
    record.reg_disagg = rt.reg_disagg
    record.reg_launch = rt.reg_launch
    for (kernel2, gdim2, bdim2, args2, pblock, offset) in rt.pending:
        queue.append((kernel2, gdim2, bdim2, args2, record, pblock, offset))
    return record


def _indices(dim, multi_dim):
    """The points of *dim* in CUDA's linear order (x fastest): ``(x, y,
    z)`` triples for a kernel of a 3-D program, else x alone, so a 1-D
    kernel launched with a multi-dimensional configuration still runs
    every (y, z) copy — as on hardware, where unread indices go unseen."""
    if multi_dim:
        return [(x, y, z) for z in range(dim.z) for y in range(dim.y)
                for x in range(dim.x)]
    if dim.total == dim.x:
        return range(dim.x)
    return list(range(dim.x)) * (dim.y * dim.z)

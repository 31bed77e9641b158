"""Host runtime: the CPU side of a simulated CUDA application.

A :class:`Device` owns a compiled :class:`~repro.engine.module.Module`, device
memory, and the execution trace. Benchmark drivers use it like a slim CUDA
runtime::

    dev = Device(module)
    dist = dev.alloc("int", n, fill=-1)
    dev.launch("parent", blocks(n, 256), 256, row, col, dist, n, 0)
    dev.sync()
    timing = dev.finish()       # event-driven timing replay

Launching a kernel that the aggregation pass rewrote triggers the
"pre-allocated buffer" machinery: the runtime sizes, allocates, and zeroes
the aggregation buffers from the :class:`~repro.transforms.base.AggSpec`
and appends them to the user's arguments. For grid-granularity aggregation
the runtime also performs the aggregated child launch on the kernel's behalf
after the parent grid completes (Sec. V-A: the CPU is involved).
"""

import numpy as np

from ..engine.executor import run_grid
from ..engine.values import Dim3, alloc_for_type
from ..errors import RuntimeLaunchError
from ..minicuda.ast import Type
from ..sim.config import DeviceConfig
from ..sim.metrics import breakdown
from ..sim.scheduler import simulate
from ..sim.trace import HOST, HOST_AGG, LaunchRecord, Trace


def blocks(n, block_dim):
    """Ceiling-divided grid dimension for n work items."""
    return (int(n) + block_dim - 1) // block_dim


class Device:
    """A simulated GPU plus its host-side control state."""

    def __init__(self, module, config=None):
        self.module = module
        self.config = config or DeviceConfig()
        self.trace = Trace()
        self._allocs = []

    # -- memory -----------------------------------------------------------

    def alloc(self, type_name, count, fill=None):
        """Allocate *count* elements of a scalar type name ('int', 'float')."""
        ptr = alloc_for_type(Type(type_name), count)
        if fill is not None:
            ptr.fill(fill)
        self._allocs.append(ptr)
        return ptr

    def upload(self, array):
        """Copy a numpy array into freshly allocated device memory.

        Floating arrays become float64 memory and all others int64 memory,
        as Python floats and ints (bool and narrow types widen).
        """
        array = np.asarray(array)
        kind = "float" if array.dtype.kind == "f" else "int"
        ptr = self.alloc(kind, len(array))
        ptr.array[:] = array.astype(ptr.dtype).tolist()
        return ptr

    # -- launches ------------------------------------------------------------

    def launch(self, kernel_name, grid_dim, block_dim, *args):
        """Host-launch a kernel (functionally executes it immediately;
        timing is derived later by :meth:`finish`)."""
        grid_dim = Dim3.of(grid_dim)
        block_dim = Dim3.of(block_dim)
        kernel = self.module.kernel(kernel_name)
        full_args = list(args)
        agg_specs = []
        promotion = None
        if self.module.meta is not None:
            agg_specs = self.module.meta.agg_specs_for(kernel_name)
            promotion = self.module.meta.promotion_spec_for(kernel_name)
        buffer_sets = []
        for spec in agg_specs:
            buffers = self._alloc_agg_buffers(spec, grid_dim, block_dim)
            buffer_sets.append((spec, buffers))
            full_args.extend(buffers[name] for name in spec.buffer_params)
        if promotion is not None:
            # One slot per original parameter plus the relaunch flag.
            for arg_type in promotion.arg_types:
                full_args.append(alloc_for_type(arg_type, 1))
            full_args.append(alloc_for_type(Type("int"), 1))
        if len(full_args) != kernel.num_params:
            raise RuntimeLaunchError(
                "kernel %r expects %d arguments, got %d"
                % (kernel_name, kernel.num_params, len(full_args)))

        record = LaunchRecord(kind=HOST, grid=None)
        grid = run_grid(self.module, self.trace, kernel_name, grid_dim,
                        block_dim, tuple(full_args), record)
        record.grid = grid
        self.trace.host_events.append(("launch", grid))

        for spec, buffers in buffer_sets:
            if spec.host_launch:
                self._host_agg_launch(spec, buffers, grid)
        return grid

    def _host_agg_launch(self, spec, buffers, parent_grid):
        """Grid-granularity aggregation: the host launches the aggregated
        child after reading the counters back (one group, segment base 0)."""
        num_parents = int(buffers[spec.buffer_params[-3]][0])
        sum_gdim = int(buffers[spec.buffer_params[-2]][0])
        max_bdim = int(buffers[spec.buffer_params[-1]][0])
        if num_parents <= 0 or sum_gdim <= 0:
            return
        arg_count = len(spec.arg_types)
        agg_args = [buffers[spec.buffer_params[k]] for k in range(arg_count)]
        agg_args.append(buffers[spec.buffer_params[arg_count]])      # scan
        agg_args.append(buffers[spec.buffer_params[arg_count + 1]])  # bdims
        agg_args.append(num_parents)
        record = LaunchRecord(kind=HOST_AGG, grid=None,
                              parent_grid=parent_grid)
        grid = run_grid(self.module, self.trace, spec.agg_kernel,
                        Dim3(sum_gdim), Dim3(max_bdim), tuple(agg_args),
                        record)
        record.grid = grid

    def _alloc_agg_buffers(self, spec, grid_dim, block_dim):
        num_groups, seg_size = _agg_geometry(spec, grid_dim.x, block_dim.x)
        per_thread = num_groups * seg_size
        buffers = {}
        for k, arg_type in enumerate(spec.arg_types):
            buffers[spec.buffer_params[k]] = alloc_for_type(
                arg_type, per_thread)
        int_t = Type("int")
        for name in spec.buffer_params[len(spec.arg_types):]:
            size = per_thread if ("_scan" in name or "_bdimarr" in name) \
                else num_groups
            buffers[name] = alloc_for_type(int_t, size)
        return buffers

    # -- completion ----------------------------------------------------------

    def sync(self):
        """cudaDeviceSynchronize(): a host barrier in the recorded timeline."""
        self.trace.host_events.append(("sync",))

    def finish(self):
        """Run the timing simulation over everything recorded so far."""
        if not self.trace.host_events or self.trace.host_events[-1] != ("sync",):
            self.sync()
        return simulate(self.trace, self.config)

    def breakdown(self):
        """Fig. 10 component totals for the recorded trace."""
        return breakdown(self.trace, self.config)


def _agg_geometry(spec, grid_blocks, block_threads):
    """(number of groups, per-group buffer segment size in slots)."""
    if spec.granularity == "grid":
        return 1, grid_blocks * block_threads
    if spec.granularity == "warp":
        warps_per_block = (block_threads + 31) // 32
        return grid_blocks * warps_per_block, 32
    group = spec.group_blocks
    num_groups = (grid_blocks + group - 1) // group
    return num_groups, group * block_threads

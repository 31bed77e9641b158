"""Shared-memory execution tests.

The engine supports ``__shared__`` arrays (block-scoped, one instance per
block) so that barrier/reduction-style child kernels can run under CDP and
under *aggregation* — the paper only excludes them from *thresholding*
(Sec. III-C).
"""

import numpy as np
import pytest

from repro.engine import Dim3, Module, alloc_for_type, run_grid
from repro.harness import outputs_match
from repro.minicuda.ast import Type
from repro.runtime import Device, blocks
from repro.sim import Trace
from repro.transforms import OptConfig, ThresholdingPass, transform
from repro.minicuda import parse

REDUCE_SRC = """
__global__ void reduce(float *data, float *out, int n) {
    __shared__ float buf[64];
    int tid = threadIdx.x;
    int idx = blockIdx.x * blockDim.x + tid;
    buf[tid] = idx < n ? data[idx] : 0.0f;
    __syncthreads();
    for (int s = 32; s > 0; s = s / 2) {
        if (tid < s) {
            buf[tid] = buf[tid] + buf[tid + s];
        }
        __syncthreads();
    }
    if (tid == 0) {
        out[blockIdx.x] = buf[0];
    }
}
"""


def run_reduce(n=200, blocks_=4):
    dev = Device(Module(REDUCE_SRC))
    data = dev.upload(np.random.default_rng(3).random(n))
    out = dev.alloc("float", blocks_)
    dev.launch("reduce", blocks_, 64, data, out, n)
    return data.to_numpy(), out.to_numpy()


class TestSharedReduction:
    def test_tree_reduction_correct(self):
        data, out = run_reduce(n=200, blocks_=4)
        expected = [data[i * 64:(i + 1) * 64].sum() for i in range(4)]
        # clamp to n
        expected[3] = data[192:200].sum()
        assert np.allclose(out, expected)

    def test_blocks_get_fresh_shared_arrays(self):
        src = """
        __global__ void k(int *out) {
            __shared__ int cell[1];
            if (threadIdx.x == 0) {
                cell[0] = cell[0] + 100 + blockIdx.x;
            }
            __syncthreads();
            out[blockIdx.x] = cell[0];
        }
        """
        out = alloc_for_type(Type("int"), 3)
        module = Module(src)
        run_grid(module, Trace(), "k", Dim3(3), Dim3(4), (out,))
        # each block starts from a zeroed array: 100, 101, 102
        assert list(out.array) == [100, 101, 102]

    def test_shared_without_barrier(self):
        src = """
        __global__ void k(int *out) {
            __shared__ int buf[8];
            buf[threadIdx.x] = threadIdx.x;
            out[threadIdx.x] = buf[threadIdx.x] * 3;
        }
        """
        out = alloc_for_type(Type("int"), 8)
        module = Module(src)
        run_grid(module, Trace(), "k", Dim3(1), Dim3(8), (out,))
        assert list(out.array) == [0, 3, 6, 9, 12, 15, 18, 21]


BARRIER_CDP_SRC = REDUCE_SRC + """
__global__ void parent(float *data, float *out, int *offs, int nseg) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    if (t < nseg) {
        int start = offs[t];
        int len = offs[t + 1] - start;
        if (len > 0) {
            reduce<<<(len + 63) / 64, 64>>>(data, out, len);
        }
    }
}
"""


#: A reduction child whose parents launch 32- or 64-thread blocks, so an
#: aggregated grid's threads past their parent's block size skip the
#: guarded body and the barriers in it.
MIXED_BLOCKS_SRC = """
__global__ void segsum(float *data, float *out, int start, int len, int seg) {
    __shared__ float buf[64];
    int tid = threadIdx.x;
    int idx = blockIdx.x * blockDim.x + tid;
    buf[tid] = idx < len ? data[start + idx] : 0.0f;
    __syncthreads();
    for (int s = blockDim.x / 2; s > 0; s = s / 2) {
        if (tid < s) {
            buf[tid] = buf[tid] + buf[tid + s];
        }
        __syncthreads();
    }
    if (tid == 0) {
        out[seg * 4 + blockIdx.x] = buf[0];
    }
}

__global__ void parent(float *data, float *out, int *offs, int nseg) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    if (t < nseg) {
        int start = offs[t];
        int len = offs[t + 1] - start;
        int bs = 32;
        if (len > 64) {
            bs = 64;
        }
        if (len > 0) {
            segsum<<<(len + bs - 1) / bs, bs>>>(data, out, start, len, t);
        }
    }
}
"""


def run_segments(source, config):
    """Run *source*'s ``parent`` over 40 random segments, transformed by
    *config* (None: plain CDP). Returns (outputs, device)."""
    if config is None:
        module = Module(source)
    else:
        result = transform(source, config)
        module = Module(result.program, result.meta)
    dev = Device(module)
    rng = np.random.default_rng(11)
    nseg = 40
    lens = rng.integers(0, 150, nseg)
    offs = np.zeros(nseg + 1, dtype=np.int64)
    offs[1:] = np.cumsum(lens)
    data = dev.upload(rng.random(int(offs[-1]) + 1))
    out = dev.alloc("float", 256)
    d_offs = dev.upload(offs)
    dev.launch("parent", blocks(nseg, 64), 64, data, out, d_offs, nseg)
    dev.sync()
    dev.finish()
    return {"out": out.to_numpy()}, dev


class TestBarrierChildrenUnderOptimization:
    """A reduction child can be aggregated/coarsened but not thresholded."""

    def _run(self, config):
        return run_segments(BARRIER_CDP_SRC, config)[0]

    def test_aggregation_with_mixed_block_sizes(self):
        reference, _ = run_segments(MIXED_BLOCKS_SRC, None)
        for granularity in ("block", "multiblock", "grid"):
            outputs, dev = run_segments(MIXED_BLOCKS_SRC,
                                        OptConfig(aggregate=granularity))
            assert outputs_match(reference, outputs, rtol=1e-9), granularity
            assert {grid.kernel for grid in dev.trace.grids} \
                == {"parent", "segsum_agg"}, granularity

    def test_aggregation_preserves_reduction(self):
        reference = self._run(None)
        for granularity in ("block", "multiblock", "grid"):
            outputs = self._run(OptConfig(aggregate=granularity))
            assert outputs_match(reference, outputs, rtol=1e-9), granularity

    def test_coarsening_preserves_reduction(self):
        reference = self._run(None)
        outputs = self._run(OptConfig(coarsen_factor=4))
        assert outputs_match(reference, outputs, rtol=1e-9)

    def test_thresholding_refuses_but_still_correct(self):
        program = parse(BARRIER_CDP_SRC)
        meta = ThresholdingPass(64).run(program)
        assert meta.thresholded_sites == 0
        assert meta.skipped_sites
        reference = self._run(None)
        outputs = self._run(OptConfig(threshold=64))
        assert outputs_match(reference, outputs, rtol=1e-9)


HIST_SRC = """
__global__ void hist(int *vals, int *out, int n) {
    __shared__ int bins[4];
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        atomicAdd(&bins[vals[i]], 1);
    }
    %s
    if (threadIdx.x < 4) {
        out[blockIdx.x * 4 + threadIdx.x] = bins[threadIdx.x];
    }
}
"""

BIN_VALUES = [0, 1, 2, 3, 3, 2, 1, 1, 0, 3, 3, 3, 2, 0, 1, 1]


class TestAtomicsOnBlockArrays:
    """Atomics on ``__shared__`` and local arrays, which are plain lists
    rather than device memory."""

    def _run(self, src, threads=8, blocks_=2):
        vals = alloc_for_type(Type("int"), len(BIN_VALUES))
        vals.array[:] = BIN_VALUES
        out = alloc_for_type(Type("int"), blocks_ * 4)
        run_grid(Module(src), Trace(), "hist", Dim3(blocks_), Dim3(threads),
                 (vals, out, len(BIN_VALUES)))
        return list(out.array)

    @pytest.mark.parametrize("barrier", ["", "__syncthreads();"],
                             ids=["barrier-free", "syncthreads"])
    def test_block_histogram(self, barrier):
        # Block 0 bins values 0..7, block 1 values 8..15. Without a barrier
        # threads run in order, so threads 0-3 read the bins before the
        # later threads of their block have added to them.
        out = self._run(HIST_SRC % barrier)
        if barrier:
            assert out == [1, 3, 2, 2, 2, 2, 1, 3]
        else:
            assert out == [1, 1, 1, 1, 1, 0, 0, 3]

    def test_device_function_reaches_shared_array_through_a_pointer(self):
        src = """
        __device__ void bump(int *bins, int v) {
            atomicAdd(&bins[v], 1);
            atomicMax(&bins[4], v);
        }
        __global__ void hist(int *vals, int *out, int n) {
            __shared__ int bins[5];
            int *view = bins;
            bump(view, vals[blockIdx.x * blockDim.x + threadIdx.x]);
            __syncthreads();
            if (threadIdx.x < 4) {
                out[blockIdx.x * 4 + threadIdx.x] = bins[threadIdx.x];
            }
            if (threadIdx.x == 0) {
                atomicExch(&view[4], 0);
            }
        }
        """
        assert self._run(src) == [1, 3, 2, 2, 2, 2, 1, 3]

    def test_atomic_on_local_array(self):
        src = """
        __global__ void hist(int *vals, int *out, int n) {
            int acc[2];
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            atomicAdd(&acc[1], vals[i]);
            atomicSub(&acc[1], 1);
            if (threadIdx.x < 4) {
                out[blockIdx.x * 4 + threadIdx.x] = acc[1];
            }
        }
        """
        assert self._run(src) == [-1, 0, 1, 2, -1, 2, 2, 2]

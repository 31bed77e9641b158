"""Breakdown metrics and host-runtime tests."""

import numpy as np
import pytest

from repro.engine import Module
from repro.errors import RuntimeLaunchError
from repro.runtime import Device, blocks
from repro.runtime.host import _agg_geometry
from repro.sim import DeviceConfig
from repro.transforms import OptConfig, transform
from repro.transforms.base import AggSpec


class TestBlocksHelper:
    def test_exact_fit(self):
        assert blocks(256, 256) == 1

    def test_ceiling(self):
        assert blocks(257, 256) == 2

    def test_zero(self):
        assert blocks(0, 256) == 0


class TestDeviceMemory:
    def _device(self):
        return Device(Module("__global__ void k(int *p) { p[0] = 1; }"))

    def test_alloc_fill(self):
        dev = self._device()
        p = dev.alloc("int", 4, fill=-1)
        assert list(p.array) == [-1] * 4

    def test_upload_int(self):
        dev = self._device()
        host = dev.upload(np.array([1, 2, 3])).to_numpy()
        assert host.dtype == np.int64
        assert list(host) == [1, 2, 3]

    def test_upload_float(self):
        dev = self._device()
        host = dev.upload(np.array([0.5, 1.5])).to_numpy()
        assert host.dtype == np.float64

    def test_wrong_arg_count_rejected(self):
        dev = self._device()
        with pytest.raises(RuntimeLaunchError):
            dev.launch("k", 1, 32)


class TestAggGeometry:
    def _spec(self, granularity, group_blocks=8):
        return AggSpec(parent="p", site_index=0, agg_kernel="a",
                       original_child="c", granularity=granularity,
                       group_blocks=group_blocks, arg_types=[],
                       buffer_params=[])

    def test_block(self):
        groups, seg = _agg_geometry(self._spec("block", 1), 10, 256)
        assert groups == 10 and seg == 256

    def test_multiblock(self):
        groups, seg = _agg_geometry(self._spec("multiblock", 4), 10, 256)
        assert groups == 3 and seg == 1024

    def test_warp(self):
        groups, seg = _agg_geometry(self._spec("warp"), 10, 96)
        assert groups == 30 and seg == 32

    def test_warp_partial(self):
        groups, seg = _agg_geometry(self._spec("warp"), 2, 48)
        assert groups == 4 and seg == 32

    def test_grid(self):
        groups, seg = _agg_geometry(self._spec("grid"), 10, 256)
        assert groups == 1 and seg == 2560


class TestEndToEndBreakdown:
    SRC = """
    __global__ void child(int *out, int start, int degree) {
        int t = blockIdx.x * blockDim.x + threadIdx.x;
        if (t < degree) { atomicAdd(&out[0], start + t); }
    }
    __global__ void parent(int *sizes, int *out, int n) {
        int t = blockIdx.x * blockDim.x + threadIdx.x;
        if (t < n) {
            int d = sizes[t];
            if (d > 0) {
                child<<<(d + 31) / 32, 32>>>(out, t, d);
            }
        }
    }
    """

    def _run(self, config):
        if config is None:
            module = Module(self.SRC)
        else:
            result = transform(self.SRC, config)
            module = Module(result.program, result.meta)
        dev = Device(module)
        rng = np.random.default_rng(0)
        n = 300
        sizes = dev.upload(rng.integers(0, 50, n))
        out = dev.alloc("int", 1)
        dev.launch("parent", blocks(n, 128), 128, sizes, out, n)
        dev.sync()
        timing = dev.finish()
        return out[0], timing, dev.breakdown()

    def test_aggregation_populates_agg_regions(self):
        ref, _, plain = self._run(None)
        out, _, agg = self._run(OptConfig(aggregate="block"))
        assert out == ref
        assert plain.agg == 0 and plain.disagg == 0
        assert agg.agg > 0 and agg.disagg > 0

    def test_thresholding_moves_child_work_to_parent(self):
        ref, _, plain = self._run(None)
        out, _, thresh = self._run(OptConfig(threshold=64))
        assert out == ref
        assert thresh.parent > plain.parent
        assert thresh.child < plain.child

    def test_launch_component_shrinks_with_aggregation(self):
        _, _, plain = self._run(None)
        _, _, agg = self._run(OptConfig(aggregate="block"))
        assert agg.launch < plain.launch

    def test_grid_granularity_runs_host_agg(self):
        ref, _, _ = self._run(None)
        out, timing, _ = self._run(OptConfig(aggregate="grid"))
        assert out == ref
        assert timing.host_agg_launches >= 1
        assert timing.device_launches == 0

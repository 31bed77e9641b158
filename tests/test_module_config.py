"""Module loading, device config, cost model, and trace record tests."""

import pytest

from repro.engine import Dim3, Module, run_grid, alloc_for_type
from repro.errors import CodegenError
from repro.minicuda.ast import Type
from repro.sim import (CostModel, DeviceConfig, Trace, call_cost)


class TestModule:
    def test_python_source_exposed(self):
        module = Module("__global__ void k(int *p) { p[0] = 1; }")
        assert "def b_k(" in module.python_source

    def test_global_array(self):
        src = """
        __device__ int table[8];
        __global__ void k(int *out) {
            table[threadIdx.x] = threadIdx.x * 3;
            out[threadIdx.x] = table[threadIdx.x];
        }
        """
        module = Module(src)
        out = alloc_for_type(Type("int"), 8)
        run_grid(module, Trace(), "k", Dim3(1), Dim3(8), (out,))
        assert list(module.global_ptr("table").array) == \
            [0, 3, 6, 9, 12, 15, 18, 21]

    def test_global_initializer(self):
        module = Module("__device__ int seed = 7;\n"
                        "__global__ void k(int *p) { p[0] = seed; }")
        assert module.global_ptr("seed")[0] == 7

    def test_reset_globals(self):
        module = Module("__device__ int counter = 5;\n"
                        "__global__ void k(int *p) { counter = 9; }")
        run_grid(module, Trace(), "k", Dim3(1), Dim3(1),
                 (alloc_for_type(Type("int"), 1),))
        assert module.global_ptr("counter")[0] == 9
        module.reset_globals()
        assert module.global_ptr("counter")[0] == 5

    def test_non_literal_global_size_rejected(self):
        with pytest.raises(CodegenError):
            Module("__device__ int table[n];\n"
                   "__global__ void k(int *p) { p[0] = 1; }")

    def test_kernel_params_recorded(self):
        module = Module(
            "__global__ void k(int *p, float x, dim3 d) { p[0] = x; }")
        params = module.kernel("k").params
        assert [name for name, _ in params] == ["p", "x", "d"]
        assert params[0][1].pointers == 1
        assert params[2][1].name == "dim3"


class TestDeviceConfig:
    def test_block_service_and_latency(self):
        config = DeviceConfig(issue_width=2, block_overhead=10)
        assert config.block_service(100) == 60
        assert config.block_latency(100) == 110

    def test_frozen(self):
        with pytest.raises(Exception):
            DeviceConfig().num_sms = 3


class TestCostModel:
    def test_cost_ordering(self):
        cm = CostModel()
        assert cm.alu < cm.mem < cm.atomic < cm.launch_issue

    def test_call_cost_classes(self):
        cm = CostModel()
        assert call_cost(cm, "atomicAdd") == cm.atomic
        assert call_cost(cm, "sqrtf") == cm.math_fn
        assert call_cost(cm, "min") == cm.alu
        assert call_cost(cm, "__threadfence") == cm.fence
        assert call_cost(cm, "somedevicefn") == 0

    def test_custom_cost_model_flows_into_codegen(self):
        cheap = CostModel(mem=1, alu=1)
        costly = CostModel(mem=500, alu=1)
        src = "__global__ void k(int *p) { p[0] = p[1] + p[2]; }"
        trace1, trace2 = Trace(), Trace()
        r1 = run_grid(Module(src, cost_model=cheap), trace1, "k",
                      Dim3(1), Dim3(1),
                      (alloc_for_type(Type("int"), 3),))
        r2 = run_grid(Module(src, cost_model=costly), trace2, "k",
                      Dim3(1), Dim3(1),
                      (alloc_for_type(Type("int"), 3),))
        assert r2.total_cycles > r1.total_cycles + 1000


class TestTrace:
    def test_new_grid_ids_sequential(self):
        trace = Trace()
        a = trace.new_grid("a", 1, 32)
        b = trace.new_grid("b", 2, 64)
        assert (a.gid, b.gid) == (0, 1)

    def test_dynamic_classification(self):
        from repro.sim import DEVICE, HOST, LaunchRecord
        trace = Trace()
        grid = trace.new_grid("k", 1, 32)
        assert not grid.is_dynamic
        grid.launch = LaunchRecord(kind=HOST, grid=grid)
        assert not grid.is_dynamic
        grid.launch = LaunchRecord(kind=DEVICE, grid=grid)
        assert grid.is_dynamic

    def test_total_launches_by_kind(self):
        from repro.sim import DEVICE, HOST, LaunchRecord
        trace = Trace()
        for kind in (HOST, DEVICE, DEVICE):
            grid = trace.new_grid("k", 1, 32)
            grid.launch = LaunchRecord(kind=kind, grid=grid)
        assert trace.total_launches() == 3
        assert trace.total_launches(DEVICE) == 2

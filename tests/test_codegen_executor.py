"""Engine tests: transpiled kernels execute with correct semantics."""

import numpy as np
import pytest

from repro.engine import Dim3, Module, alloc_for_type, run_grid
from repro.errors import CodegenError, RuntimeLaunchError
from repro.minicuda.ast import Type
from repro.runtime import Device
from repro.sim import CostModel, Trace


def run(source, kernel, grid, block, *args, module=None):
    module = module or Module(source)
    trace = Trace()
    record = run_grid(module, trace, kernel, Dim3.of(grid), Dim3.of(block),
                      args)
    return module, trace, record


def int_array(values):
    return Device(None).upload(np.array(values))


class TestBasicSemantics:
    def test_thread_indexing(self):
        src = """
        __global__ void k(int *out, int n) {
            int t = blockIdx.x * blockDim.x + threadIdx.x;
            if (t < n) { out[t] = t * 2; }
        }
        """
        out = alloc_for_type(Type("int"), 10)
        run(src, "k", 3, 4, out, 10)
        assert list(out.array) == [2 * i for i in range(10)]

    def test_for_loop_and_compound_assign(self):
        src = """
        __global__ void k(int *out, int n) {
            int s = 0;
            for (int i = 1; i <= n; ++i) { s += i; }
            out[threadIdx.x] = s;
        }
        """
        out = alloc_for_type(Type("int"), 1)
        run(src, "k", 1, 1, out, 10)
        assert out[0] == 55

    def test_while_break_continue(self):
        src = """
        __global__ void k(int *out) {
            int i = 0;
            int s = 0;
            while (true) {
                i = i + 1;
                if (i > 10) { break; }
                if (i % 2 == 0) { continue; }
                s += i;
            }
            out[0] = s;
        }
        """
        out = alloc_for_type(Type("int"), 1)
        run(src, "k", 1, 1, out)
        assert out[0] == 25  # 1+3+5+7+9

    def test_do_while(self):
        src = """
        __global__ void k(int *out) {
            int i = 0;
            do { i = i + 1; } while (i < 5);
            out[0] = i;
        }
        """
        out = alloc_for_type(Type("int"), 1)
        run(src, "k", 1, 1, out)
        assert out[0] == 5

    def test_int_division_truncation(self):
        src = """
        __global__ void k(int *out, int a, int b) {
            out[0] = a / b;
            out[1] = a % b;
        }
        """
        out = alloc_for_type(Type("int"), 2)
        run(src, "k", 1, 1, out, -7, 2)
        assert out[0] == -3 and out[1] == -1

    def test_float_math_and_cast(self):
        src = """
        __global__ void k(float *out, int n) {
            float x = (float)n / 2.0f;
            out[0] = sqrtf(x * x);
            out[1] = (float)((int)3.9f);
        }
        """
        out = alloc_for_type(Type("float"), 2)
        run(src, "k", 1, 1, out, 6)
        assert out[0] == pytest.approx(3.0)
        assert out[1] == pytest.approx(3.0)

    def test_ternary_and_logical_ops(self):
        src = """
        __global__ void k(int *out, int a, int b) {
            out[0] = (a > b && a > 0) ? a : b;
            out[1] = (a < 0 || b < 0) ? 1 : 0;
        }
        """
        out = alloc_for_type(Type("int"), 2)
        run(src, "k", 1, 1, out, 5, 3)
        assert out[0] == 5 and out[1] == 0

    @pytest.mark.parametrize("a, b, expected", [
        (3, 5, [1, 1, 2]), (0, 7, [0, 1, 1]), (0, 0, [0, 0, 0])])
    def test_logical_ops_as_values_are_zero_or_one(self, a, b, expected):
        src = """
        __global__ void k(int *out, int a, int b) {
            int x = a && b;
            int y = a || b;
            out[0] = x;
            out[1] = y;
            out[2] = (a && b) + (a || b);
        }
        """
        out = alloc_for_type(Type("int"), 3)
        run(src, "k", 1, 1, out, a, b)
        assert [out[k] for k in range(3)] == expected

    def test_device_function_call_in_expression(self):
        src = """
        __device__ int square(int x) { return x * x; }
        __global__ void k(int *out, int n) {
            out[0] = square(n) + square(2);
        }
        """
        out = alloc_for_type(Type("int"), 1)
        run(src, "k", 1, 1, out, 5)
        assert out[0] == 29

    def test_dim3_value_semantics(self):
        src = """
        __global__ void k(int *out) {
            dim3 a = dim3(4, 5, 6);
            dim3 b = a;
            b.x = 99;
            out[0] = a.x;
            out[1] = b.x;
            out[2] = b.y;
        }
        """
        out = alloc_for_type(Type("int"), 3)
        run(src, "k", 1, 1, out)
        assert list(out.array) == [4, 99, 5]

    def test_global_device_variable(self):
        src = """
        __device__ int counter = 0;
        __global__ void k(int *out) {
            atomicAdd(&counter, 1);
            out[0] = counter;
        }
        """
        module, _, _ = run(src, "k", 1, 8,
                           alloc_for_type(Type("int"), 1))
        assert module.global_ptr("counter")[0] == 8

    def test_pointer_params_shared_between_threads(self):
        src = """
        __global__ void k(int *data) {
            atomicAdd(&data[0], threadIdx.x);
        }
        """
        data = alloc_for_type(Type("int"), 1)
        run(src, "k", 2, 8, data)
        assert data[0] == 2 * sum(range(8))


class TestAtomics:
    def test_atomic_cas_returns_old(self):
        src = """
        __global__ void k(int *cell, int *old) {
            old[threadIdx.x] = atomicCAS(&cell[0], -1, threadIdx.x);
        }
        """
        cell = int_array([-1])
        old = alloc_for_type(Type("int"), 4)
        run(src, "k", 1, 4, cell, old)
        assert cell[0] == 0          # only thread 0 wins
        assert old[0] == -1          # old value seen by winner
        assert all(o == 0 for o in old.array[1:])

    def test_atomic_max_min_exch(self):
        src = """
        __global__ void k(int *cells) {
            atomicMax(&cells[0], threadIdx.x);
            atomicMin(&cells[1], threadIdx.x);
            atomicExch(&cells[2], threadIdx.x);
        }
        """
        cells = int_array([-100, 100, -1])
        run(src, "k", 1, 8, cells)
        assert cells[0] == 7
        assert cells[1] == 0
        assert cells[2] == 7


class TestBarriers:
    def test_syncthreads_synchronizes_clocks(self):
        # Thread 0 does heavy work before the barrier; all threads must
        # leave the barrier at thread 0's (max) cycle count.
        src = """
        __global__ void k(int *out, int n) {
            int s = 0;
            if (threadIdx.x == 0) {
                for (int i = 0; i < n; ++i) { s += i; }
            }
            __syncthreads();
            out[threadIdx.x] = s;
        }
        """
        module = Module(src)
        assert module.kernel("k").has_barrier
        out = alloc_for_type(Type("int"), 32)
        _, trace, record = run(src, "k", 1, 32, out, 100, module=module)
        # thread 0 computed the sum; everyone waited
        assert out[0] == sum(range(100))

    def test_barrier_data_exchange(self):
        src = """
        __global__ void k(int *buf, int *out) {
            buf[threadIdx.x] = threadIdx.x * 10;
            __syncthreads();
            out[threadIdx.x] = buf[(threadIdx.x + 1) % blockDim.x];
        }
        """
        buf = alloc_for_type(Type("int"), 4)
        out = alloc_for_type(Type("int"), 4)
        run(src, "k", 1, 4, buf, out)
        assert list(out.array) == [10, 20, 30, 0]

    def test_early_exit_thread_does_not_deadlock(self):
        src = """
        __global__ void k(int *out, int n) {
            if (threadIdx.x >= n) { return; }
            __syncthreads();
            out[threadIdx.x] = 1;
        }
        """
        out = alloc_for_type(Type("int"), 8)
        run(src, "k", 1, 8, out, 4)
        assert out.to_numpy().sum() == 4

    def test_barrier_in_device_function_rejected(self):
        src = """
        __device__ void helper() { __syncthreads(); }
        __global__ void k(int *p) { helper(); p[0] = 1; }
        """
        with pytest.raises(CodegenError):
            Module(src)


class TestLaunches:
    def test_dynamic_launch_recorded_and_executed(self):
        src = """
        __global__ void child(int *out, int v) {
            out[threadIdx.x] = v;
        }
        __global__ void parent(int *out) {
            if (threadIdx.x == 0) {
                child<<<1, 4>>>(out, 7);
            }
        }
        """
        out = alloc_for_type(Type("int"), 4)
        _, trace, record = run(src, "parent", 1, 32, out)
        assert list(out.array) == [7, 7, 7, 7]
        assert len(trace.grids) == 2
        child = trace.grids[1]
        assert child.is_dynamic
        assert child.launch.parent_grid is record
        assert child.launch.issue_offset > 0

    def test_grandchild_launch(self):
        src = """
        __global__ void leaf(int *out) { out[0] = out[0] + 1; }
        __global__ void mid(int *out) {
            if (threadIdx.x == 0) { leaf<<<1, 1>>>(out); }
        }
        __global__ void root(int *out) {
            if (threadIdx.x == 0) { mid<<<1, 32>>>(out); }
        }
        """
        out = alloc_for_type(Type("int"), 1)
        _, trace, _ = run(src, "root", 1, 32, out)
        assert out[0] == 1
        assert [g.kernel for g in trace.grids] == ["root", "mid", "leaf"]

    def test_empty_launch_config_rejected(self):
        src = "__global__ void k(int *p) { p[0] = 1; }"
        with pytest.raises(RuntimeLaunchError):
            run(src, "k", 0, 32, alloc_for_type(Type("int"), 1))


class TestCostAccounting:
    def test_cycles_positive_and_scale_with_work(self):
        src = """
        __global__ void k(int *out, int n) {
            int s = 0;
            for (int i = 0; i < n; ++i) { s += out[i % 4]; }
            out[0] = s;
        }
        """
        out_small = alloc_for_type(Type("int"), 4)
        _, _, small = run(src, "k", 1, 1, out_small, 10)
        out_big = alloc_for_type(Type("int"), 4)
        _, _, big = run(src, "k", 1, 1, out_big, 1000)
        assert big.total_cycles > small.total_cycles * 20

    def test_cdp_code_tax_applied(self):
        plain = "__global__ void k(int *p, int n) { p[0] = n; }"
        with_launch = """
        __global__ void c(int *p, int n) { p[0] = n; }
        __global__ void k(int *p, int n) {
            p[0] = n;
            if (n > 1000000) { c<<<1, 1>>>(p, n); }
        }
        """
        out1 = alloc_for_type(Type("int"), 1)
        _, _, r1 = run(plain, "k", 1, 32, out1, 5)
        out2 = alloc_for_type(Type("int"), 1)
        _, _, r2 = run(with_launch, "k", 1, 32, out2, 5)
        tax = CostModel().cdp_code_tax
        assert r2.total_cycles >= r1.total_cycles + 32 * tax

    def test_warp_cost_is_max_of_threads(self):
        # One slow thread in the warp dominates the warp cost (divergence).
        src = """
        __global__ void k(int *out, int n) {
            int s = 0;
            if (threadIdx.x == 0) {
                for (int i = 0; i < n; ++i) { s += i; }
            }
            out[threadIdx.x] = s;
        }
        """
        out = alloc_for_type(Type("int"), 32)
        _, _, record = run(src, "k", 1, 32, out, 500)
        block = record.blocks[0]
        assert block.max_warp == block.sum_warp  # single warp
        assert block.max_warp > 500  # dominated by the looping thread

    def test_region_counters_default_zero(self):
        src = "__global__ void k(int *p) { p[0] = 1; }"
        _, _, record = run(src, "k", 1, 1, alloc_for_type(Type("int"), 1))
        assert record.reg_agg == 0
        assert record.reg_disagg == 0


def block_costs(record):
    return [(b.max_warp, b.sum_warp) for b in record.blocks], \
        record.total_cycles


class TestBlockFunction:
    """A barrier-free kernel of a 1-D program runs as one block function;
    its outputs and block costs are checked against hand-computed values
    (weights: alu 1, mem 10, atomic 24, device call 2)."""

    def test_return_ends_only_the_current_thread(self):
        # t >= n returns at thread level (cost 1); t < 9 returns two loops
        # deep (19 + 18*i + 5*j with t = 3i + j); the rest finish the
        # loops (1 + 55) and store (11).
        src = """
        __global__ void k(int *out, int n) {
            int t = threadIdx.x;
            if (t >= n) { return; }
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 3; j++) {
                    if (i * 3 + j == t) { out[t] = i * 10 + j; return; }
                }
            }
            out[t] = 99;
        }
        """
        out = alloc_for_type(Type("int"), 12)
        _, _, record = run(src, "k", 1, 12, out, 11)
        assert [out[t] for t in range(12)] == \
            [0, 1, 2, 10, 11, 12, 20, 21, 22, 99, 99, 0]
        cycles = [19 + 18 * (t // 3) + 5 * (t % 3) for t in range(9)]
        cycles += [67, 67, 1]
        assert block_costs(record) == ([(67, 67)], sum(cycles))

    def test_rebound_pointer_parameters_stay_pointers(self):
        src = """
        __global__ void k(int *p, int *q, int n) {
            p = p + 1;
            q++;
            p[threadIdx.x] = n;
            q[threadIdx.x] = n + 1;
        }
        """
        module = Module(src)
        assert "a_p = " not in module.python_source
        assert "a_q = " not in module.python_source
        p = alloc_for_type(Type("int"), 4)
        q = alloc_for_type(Type("int"), 4)
        _, _, record = run(src, "k", 1, 2, p, q, 7, module=module)
        assert list(p.array) == [0, 7, 7, 0]
        assert list(q.array) == [0, 8, 8, 0]
        assert block_costs(record) == ([(26, 26)], 52)

    def test_compound_stores_through_hoisted_pointer_truncate(self):
        # Each thread adds 2.5 at the slot it claims from c (the index is
        # evaluated once), bumps p[t + 2], then subtracts 2.5 from p[0];
        # int memory truncates toward zero: int(0.5) = 0, int(-2.5) = -2.
        src = """
        __global__ void k(int *p, int *c, float x) {
            p[atomicAdd(c, 1)] += x;
            p[threadIdx.x + 2]++;
            *p -= x;
        }
        """
        module = Module(src)
        assert "a_p = " in module.python_source
        p = int_array([1, -1, 5, 7])
        c = int_array([0])
        _, _, record = run(src, "k", 1, 2, p, c, 2.5, module=module)
        assert list(p.array) == [-2, 1, 6, 8]
        assert [type(v) for v in p.array] == [int] * 4
        assert c[0] == 2
        assert block_costs(record) == ([(49, 49)], 98)

    def test_device_function_cycles_go_to_the_calling_thread(self):
        # twice() costs 3 on top of its call site (13); every thread pays
        # the test (1). Thread 1 is in warp 0 of 34 threads.
        src = """
        __device__ int twice(int v) { int w = v + v; w = w * 3; return w; }
        __global__ void k(int *out) {
            if (threadIdx.x == 1) { out[1] = twice(threadIdx.x); }
        }
        """
        out = alloc_for_type(Type("int"), 2)
        _, _, record = run(src, "k", 1, 34, out)
        assert out[1] == 6
        assert block_costs(record) == ([(17, 18)], 33 + 17)

    LOOP_SRC = """
    __global__ void k(int *out) {
        int s = 0;
        for (int i = 0; i < threadIdx.x; i++) { s += 1; }
        out[threadIdx.x] = s;
    }
    """

    def test_forty_threads_are_two_warps(self):
        # Thread t costs 3t + 12: warp peaks at t = 31 and t = 39.
        out = alloc_for_type(Type("int"), 40)
        _, _, record = run(self.LOOP_SRC, "k", 1, 40, out)
        assert list(out.array) == list(range(40))
        assert block_costs(record) == \
            ([(129, 105 + 129)], sum(3 * t + 12 for t in range(40)))

    def test_warps_form_over_the_linearized_block(self):
        # Block (40, 2): linear threads 0-31, 32-63 and 64-79 are the warps;
        # their highest x indices are 31, 39 and 39.
        out = alloc_for_type(Type("int"), 40)
        _, _, record = run(self.LOOP_SRC, "k", 1, Dim3(40, 2), out)
        assert list(out.array) == list(range(40))
        assert block_costs(record) == \
            ([(129, 105 + 129 + 129)], 2 * sum(3 * t + 12 for t in range(40)))


class TestCodegenErrors:
    def test_unknown_identifier(self):
        with pytest.raises(CodegenError) as err:
            Module("__global__ void k(int *p) { p[0] = MYSTERY; }")
        assert "MYSTERY" in str(err.value)

    def test_macro_resolves_identifier(self):
        from repro.transforms.base import ModuleMeta
        meta = ModuleMeta(macros={"MYSTERY": 42})
        module = Module("__global__ void k(int *p) { p[0] = MYSTERY; }",
                        meta)
        out = alloc_for_type(Type("int"), 1)
        trace = Trace()
        run_grid(module, trace, "k", Dim3(1), Dim3(1), (out,))
        assert out[0] == 42

    def test_local_array_per_thread(self):
        src = """
        __global__ void k(int *out) {
            int buf[4];
            buf[0] = threadIdx.x;
            buf[1] = buf[0] * 2;
            out[threadIdx.x] = buf[1];
        }
        """
        out = alloc_for_type(Type("int"), 4)
        run(src, "k", 1, 4, out)
        assert list(out.array) == [0, 2, 4, 6]

    def test_unknown_call_rejected(self):
        with pytest.raises(CodegenError):
            Module("__global__ void k(int *p) { frobnicate(p); }")

    def test_kernel_lookup_error(self):
        module = Module("__global__ void k(int *p) { p[0] = 1; }")
        with pytest.raises(CodegenError):
            module.kernel("nope")

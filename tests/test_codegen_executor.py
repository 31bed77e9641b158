"""Engine tests: transpiled kernels execute with correct semantics."""

import numpy as np
import pytest

from repro.engine import Dim3, Module, alloc_for_type, run_grid
from repro.errors import CodegenError, RuntimeLaunchError
from repro.minicuda import ast, parse
from repro.minicuda import builders as b
from repro.minicuda.ast import Type, set_region
from repro.runtime import Device, blocks
from repro.sim import CostModel, Trace
from repro.transforms import OptConfig, transform


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


class TestDim3Parameters:
    """``dim3`` parameters are passed by value: a thread that member-stores
    one changes neither the other threads' copies nor the caller's."""

    BUMP_SRC = """
    __global__ void k(int *out, dim3 g) {
        g.x = g.x + 1;
        %s
        out[%s] = g.x;
    }
    """

    def run_bump(self, barrier, index, block):
        g = Dim3(10)
        out = alloc_for_type(Type("int"), 4)
        run(self.BUMP_SRC % (barrier, index), "k", 1, block, out, g)
        return list(out.array), g

    def test_kernel_member_store_is_per_thread(self):
        assert self.run_bump("", "threadIdx.x", 4) == ([11] * 4, Dim3(10))

    def test_multi_dim_kernel_member_store_is_per_thread(self):
        assert self.run_bump("", "threadIdx.y * 2 + threadIdx.x",
                             Dim3(2, 2)) == ([11] * 4, Dim3(10))

    def test_barrier_kernel_member_store_is_per_thread(self):
        assert self.run_bump("__syncthreads();", "threadIdx.x", 4) \
            == ([11] * 4, Dim3(10))

    def test_device_function_member_store_leaves_the_caller(self):
        src = """
        __device__ int bump(dim3 d) { d.x = d.x + 5; return d.x; }
        __global__ void k(int *out) {
            dim3 d = dim3(1, 1, 1);
            out[0] = bump(d);
            out[1] = d.x;
        }
        """
        out = alloc_for_type(Type("int"), 2)
        run(src, "k", 1, 1, out)
        assert list(out.array) == [6, 1]


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

    @pytest.mark.parametrize("grid, block", [
        (Dim3(-2, -1), Dim3(4)), (Dim3(2), Dim3(-4, -1))],
        ids=["grid", "block"])
    def test_negative_launch_dimension_rejected(self, grid, block):
        """A negative component is an invalid launch even when the
        product of the components is positive."""
        module = Module("__global__ void k(int *p) { p[0] = 1; }")
        dev = Device(module)
        with pytest.raises(RuntimeLaunchError):
            dev.launch("k", grid, block, dev.alloc("int", 1))
        assert dev.trace.grids == []
        assert dev.trace.host_events == []

    def test_negative_device_launch_rejected(self):
        src = """
        __global__ void child(int *p) { p[0] = 1; }
        __global__ void parent(int *p, int n) {
            child<<<dim3(-n, -1), 4>>>(p);
        }
        """
        with pytest.raises(RuntimeLaunchError):
            run(src, "parent", 1, 1, alloc_for_type(Type("int"), 1), 2)


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


def prologue_kernel(prologue, body):
    """``k(int *p, int *q)``, beside a global ``int g``, whose leading
    statements *prologue* are tagged ``"disagg"``, as aggregation tags
    the disaggregation logic."""
    for stmt in prologue:
        set_region(stmt, "disagg")
    params = [ast.Param(ast.INT.pointer_to(), name) for name in "pq"]
    return ast.Program([b.decl_int("g"), ast.FunctionDef(
        ("__global__",), ast.VOID.clone(), "k", params,
        b.block(prologue, body))])


class TestDisaggregationPrologue:
    """A block function runs its kernel's leading "disagg" statements once
    per block, before the thread loop, and charges them to every
    thread."""

    SEARCH_SRC = """
    __global__ void child(int *out, int base) {
        int t = blockIdx.x * blockDim.x + threadIdx.x;
        out[base + t] = t;
    }
    __global__ void parent(int *out) {
        child<<<2, 64>>>(out, threadIdx.x * 128);
    }
    """

    def test_aggregated_child_searches_once_per_block(self):
        result = transform(self.SEARCH_SRC, OptConfig(aggregate="grid"))
        module = Module(result.program, result.meta)
        divisions = []
        c_div = module.namespace["_div"]

        def counting_div(x, y):
            divisions.append((x, y))
            return c_div(x, y)

        module.namespace["_div"] = counting_div
        dev = Device(module)
        out = dev.alloc("int", 256)
        dev.launch("parent", 1, 2, out)
        dev.sync()
        assert list(out.array) == list(range(128)) * 2
        # Two parents: each of the aggregated grid's 4 blocks halves the
        # search range [0, 1] once, where 256 threads would have.
        assert len(divisions) == 4

    @pytest.mark.parametrize("prologue, body, problem", [
        ([b.decl_int("x", b.member("threadIdx", "x"))], [],
         "reads threadIdx"),
        ([b.expr_stmt(b.assign(b.index("p", 0), 1))], [],
         "stores through p"),
        ([b.expr_stmt(b.call("atomicAdd", b.address_of(b.index("p", 0)),
                             1))], [],
         "stores through p"),
        ([b.decl_int("x", b.index("p", b.member("blockIdx", "x")))],
         [b.expr_stmt(b.assign(b.index("p", b.member("threadIdx", "x")),
                               b.ident("x")))],
         "reads p, which the rest of the kernel writes"),
        ([b.decl_int("x", b.ident("g"))], [b.expr_stmt(b.assign("g", 1))],
         "reads g, which the rest of the kernel writes"),
        ([b.expr_stmt(b.assign("q", b.ident("p")))], [],
         "assigns q, which it does not declare"),
        ([b.expr_stmt(ast.Launch("k", b.lit(1), b.lit(1),
                                 [b.ident("p"), b.ident("q")]))], [],
         "launches a kernel"),
        ([b.expr_stmt(b.call("printf", ast.StrLit("x")))], [],
         "calls printf"),
        ([ast.DeclStmt([ast.VarDecl(ast.INT.clone(), "buf",
                                    array_size=b.lit(4))])], [],
         "declares the array buf"),
        ([ast.Return()], [], "returns"),
    ], ids=["threadIdx", "store", "atomic", "read-after-write",
            "global-read-after-write", "foreign-assign", "launch", "printf",
            "array", "return"])
    def test_rejected_prologues(self, prologue, body, problem):
        with pytest.raises(CodegenError) as err:
            Module(prologue_kernel(prologue, body))
        assert "prologue of 'k' %s" % problem in str(err.value)

    def test_untagged_code_inside_the_prologue_is_rejected(self):
        loop = ast.While(b.lt("i", 2), b.block(b.expr_stmt(
            b.assign("i", b.add("i", 1)))))
        program = prologue_kernel([b.decl_int("i", 0), loop], [])
        set_region(loop.body, None)
        with pytest.raises(CodegenError) as err:
            Module(program)
        assert "prologue of 'k' holds code not tagged" in str(err.value)

    HAND_SRC = """
    __global__ void k(int *p, int *q) {
        int *r = p + blockIdx.x * 40;
        int base = blockIdx.x * 8;
        dim3 d = dim3(blockIdx.x + 1, 1, 1);
        int w = q[0];
        q = q + 1;
        base += threadIdx.x;
        d.x = d.x + threadIdx.x;
        r[threadIdx.x] = base * 1000 + d.x * 100 + w * 10 + q[0];
    }
    """

    def run_hand(self, hoisted):
        # The first four statements are the prologue. An untagged no-op
        # in front of them keeps them in the thread loop, per thread.
        program = parse(self.HAND_SRC)
        body = program.function("k").body
        for stmt in body.stmts[:4]:
            set_region(stmt, "disagg")
        if not hoisted:
            body.stmts.insert(0, b.decl_int("z", 0))
        module = Module(program)
        assert ("_pc * len(_tixs)" in module.python_source) == hoisted
        assert ("a_r = v_r.array" in module.python_source) == hoisted
        p = alloc_for_type(Type("int"), 80)
        _, _, record = run(None, "k", 2, 40, p, int_array([3, 4]),
                           module=module)
        return list(p.array), block_costs(record), record.reg_disagg

    def test_hand_tagged_prologue_costs_what_it_costs_per_thread(self):
        # It reads the parameter q that the thread body rebinds, loads a
        # pointer the body stores through, and binds an int and a dim3
        # that the body rebinds.
        hoisted = self.run_hand(True)
        assert hoisted == self.run_hand(False)
        assert hoisted[0] == [(8 * bx + t) * 1000 + (bx + 1 + t) * 100 + 34
                              for bx in range(2) for t in range(40)]
        assert hoisted[2] > 0

    REBIND_SRC = """
    __global__ void child(int *src, int *out, int base, int n) {
        int tid = blockIdx.x * blockDim.x + threadIdx.x;
        if (tid < n) {
            base += tid;
            src = src + 1;
            out[base] = src[base] * 2;
        }
    }
    __global__ void parent(int *src, int *out, int *offs, int m) {
        int t = blockIdx.x * blockDim.x + threadIdx.x;
        if (t < m) {
            int c = offs[t + 1] - offs[t];
            if (c > 0) {
                child<<<(c + 31) / 32, 32>>>(src, out, offs[t], c);
            }
        }
    }
    """

    def run_rebind(self, config):
        if config is None:
            module = Module(self.REBIND_SRC)
        else:
            result = transform(self.REBIND_SRC, config)
            module = Module(result.program, result.meta)
        sizes = [0, 5, 40, 1, 33, 0, 64, 7] * 5
        offs = np.concatenate([[0], np.cumsum(sizes)])
        dev = Device(module)
        src = dev.upload(np.arange(offs[-1] + 1) * 3)
        out = dev.alloc("int", int(offs[-1]))
        dev.launch("parent", blocks(len(sizes), 16), 16, src, out,
                   dev.upload(offs), len(sizes))
        dev.sync()
        return module, out.to_numpy()

    @pytest.mark.parametrize("granularity",
                             ["warp", "block", "multiblock", "grid"])
    def test_child_rebinding_its_parameters_matches_cdp(self, granularity):
        _, expected = self.run_rebind(None)
        module, out = self.run_rebind(
            OptConfig(aggregate=granularity, group_blocks=2))
        assert "_pc * len(_tixs)" in module.python_source
        assert list(out) == list(expected)
        assert list(expected) == [6 * (i + 1) for i in range(len(out))]


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

    @pytest.mark.parametrize("name", ["n", "_c", "_D3"])
    def test_macro_that_could_clash_rejected(self, name):
        """Macros are read as module globals, so a name the generated
        code could bind itself (a local, a helper) is refused."""
        from repro.transforms.base import ModuleMeta
        with pytest.raises(CodegenError, match="upper-case"):
            Module("__global__ void k(int *p) { p[0] = %s; }" % name,
                   ModuleMeta(macros={name: 1}))

    def test_module_must_bind_every_macro_its_code_reads(self):
        from repro.transforms.base import ModuleMeta
        module = Module("__global__ void k(int *p) { p[0] = MYSTERY; }",
                        ModuleMeta(macros={"MYSTERY": 42}))
        assert Module.from_artifact(
            module.artifact,
            ModuleMeta(macros={"MYSTERY": 7})).namespace["MYSTERY"] == 7
        with pytest.raises(CodegenError, match="MYSTERY"):
            Module.from_artifact(module.artifact, ModuleMeta())

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

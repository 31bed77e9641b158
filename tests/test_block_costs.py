"""Pinned executor costs of the test-only barrier and multi-dimensional
kernels.

The golden re-drive (``test_timing_golden.py``) pins the benchmarks'
kernels, whose only barriers are the aggregated parents' epilogues. The
other barrier and 3-D kernels of the suite are checked on their outputs
elsewhere; here every grid they run must keep its exact block costs,
``total_cycles``, region cycles (``reg_agg``/``reg_disagg``/``reg_launch``)
and incoming launch edge (``issue_offset`` included), in the form of
:func:`~tests.test_timing_golden.encode_trace`. Each case pins the number
of grids, their summed ``total_cycles`` and a SHA-256 of the encoded trace.
The ``-8t-multiblock`` cases launch the barrier children's parents in
8-thread blocks, so each multi-block group gathers several parent blocks;
their group sizes share one compiled artifact.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.engine import (CompiledKernelCache, Dim3, Module, alloc_for_type,
                          run_grid)
from repro.harness import outputs_match
from repro.minicuda import parse
from repro.minicuda.ast import Type
from repro.runtime import Device
from repro.sim import Trace
from repro.transforms import OptConfig, PromotionPass

from . import test_mechanisms, test_promotion, test_shared_memory
from .test_timing_golden import encode_trace

CLOCK_SRC = """
__global__ void k(int *out, int n) {
    int s = 0;
    if (threadIdx.x == 0) {
        for (int i = 0; i < n; ++i) { s += i; }
    }
    __syncthreads();
    out[threadIdx.x] = s;
}
"""

EXCHANGE_SRC = """
__global__ void k(int *buf, int *out) {
    buf[threadIdx.x] = threadIdx.x * 10;
    __syncthreads();
    out[threadIdx.x] = buf[(threadIdx.x + 1) % blockDim.x];
}
"""

EARLY_EXIT_SRC = """
__global__ void k(int *out, int n) {
    if (threadIdx.x >= n) { return; }
    __syncthreads();
    out[threadIdx.x] = 1;
}
"""

BARRIER_2D_SRC = """
__global__ void k(int *buf, int *out, int width) {
    int idx = threadIdx.y * blockDim.x + threadIdx.x;
    buf[idx] = idx + 1;
    __syncthreads();
    out[idx] = buf[(idx + 1) % (blockDim.x * blockDim.y)];
}
"""

BLOCK_3D_SRC = """
__global__ void k(int *out) {
    int idx = threadIdx.z * blockDim.y * blockDim.x
              + threadIdx.y * blockDim.x + threadIdx.x;
    out[idx] = idx * 2;
}
"""


def _grid(source, grid, block, *args):
    trace = Trace()
    run_grid(Module(source), trace, "k", Dim3.of(grid), Dim3.of(block), args)
    return trace


def _ints(count):
    return alloc_for_type(Type("int"), count)


def _reduce():
    dev = Device(Module(test_shared_memory.REDUCE_SRC))
    data = dev.upload(np.random.default_rng(3).random(200))
    dev.launch("reduce", 4, 64, data, dev.alloc("float", 4), 200)
    return dev.trace


def _segments(source, config):
    return test_shared_memory.run_segments(source, config)[1].trace


#: One cache for every multi-block group size of the grouped cases.
GROUPED_CACHE = CompiledKernelCache()

#: Sources whose parents run in 8-thread blocks (5 parent blocks), so a
#: multi-block group of 2 or 4 gathers several parent blocks' children.
GROUPED_SOURCES = {"barrier-cdp": test_shared_memory.BARRIER_CDP_SRC,
                   "mixed-blocks": test_shared_memory.MIXED_BLOCKS_SRC}


def _grouped(source, config, cache=GROUPED_CACHE):
    """``run_segments`` with 8-thread parent blocks through *cache*:
    (outputs, device)."""
    return test_shared_memory.run_segments(source, config, parent_threads=8,
                                           cache=cache)


def _multiblock(name, group):
    return _grouped(GROUPED_SOURCES[name], OptConfig(
        aggregate="multiblock", group_blocks=group))[1].trace


def _promoted_jump():
    program = parse(test_promotion.RECURSIVE_SRC)
    meta = PromotionPass().run(program)
    return test_promotion.run_jump(Module(program, meta))[1].trace


def _agg_threshold(sparse):
    sizes = np.full(test_mechanisms.N, 20)
    if sparse:
        sizes = np.zeros(test_mechanisms.N, dtype=np.int64)
        sizes[::37] = 40
    return test_mechanisms.run(
        OptConfig(aggregate="block", agg_threshold=8), sizes=sizes)[2]


CASES = {
    "syncthreads-clocks": lambda: _grid(CLOCK_SRC, 1, 32, _ints(32), 100),
    "barrier-exchange": lambda: _grid(EXCHANGE_SRC, 1, 4, _ints(4),
                                      _ints(4)),
    "early-exit": lambda: _grid(EARLY_EXIT_SRC, 1, 8, _ints(8), 4),
    "reduce": _reduce,
    "barrier-cdp": lambda: _segments(test_shared_memory.BARRIER_CDP_SRC,
                                     None),
    "barrier-cdp-block": lambda: _segments(
        test_shared_memory.BARRIER_CDP_SRC, OptConfig(aggregate="block")),
    "barrier-cdp-multiblock": lambda: _segments(
        test_shared_memory.BARRIER_CDP_SRC,
        OptConfig(aggregate="multiblock")),
    "barrier-cdp-grid": lambda: _segments(
        test_shared_memory.BARRIER_CDP_SRC, OptConfig(aggregate="grid")),
    "barrier-cdp-coarsen4": lambda: _segments(
        test_shared_memory.BARRIER_CDP_SRC, OptConfig(coarsen_factor=4)),
    "promoted-jump": _promoted_jump,
    "agg-threshold-sparse": lambda: _agg_threshold(sparse=True),
    "agg-threshold-dense": lambda: _agg_threshold(sparse=False),
    "barrier-2d": lambda: _grid(BARRIER_2D_SRC, 1, Dim3(3, 2), _ints(6),
                                _ints(6), 3),
    "block-3d": lambda: _grid(BLOCK_3D_SRC, 1, Dim3(2, 3, 4), _ints(24)),
    "mixed-blocks-block": lambda: _segments(
        test_shared_memory.MIXED_BLOCKS_SRC, OptConfig(aggregate="block")),
    "mixed-blocks-multiblock": lambda: _segments(
        test_shared_memory.MIXED_BLOCKS_SRC,
        OptConfig(aggregate="multiblock")),
    "mixed-blocks-grid": lambda: _segments(
        test_shared_memory.MIXED_BLOCKS_SRC, OptConfig(aggregate="grid")),
    "barrier-cdp-8t-multiblock2": lambda: _multiblock("barrier-cdp", 2),
    "barrier-cdp-8t-multiblock4": lambda: _multiblock("barrier-cdp", 4),
    "mixed-blocks-8t-multiblock2": lambda: _multiblock("mixed-blocks", 2),
    "mixed-blocks-8t-multiblock4": lambda: _multiblock("mixed-blocks", 4),
}

#: case -> (grids, summed total_cycles, SHA-256 of the encoded trace).
EXPECTED = {
    "agg-threshold-dense": (5, 1604396,
        "fadb8f75033011e57040232f53506defac7bc719665f0c33e98180ba0eaa6760"),
    "agg-threshold-sparse": (8, 88204,
        "c81bfd15cb8a84652014f4dc010aef1e96e59dc268086890033d9fba8e7abd39"),
    "barrier-2d": (1, 276,
        "87f22eadfb48d36c601b3e7cb9d84881af45513877e470cc886a1dfb5fdde982"),
    "barrier-cdp": (41, 1438965,
        "60b399c1fc20eb67c3a9e635503efe5519d8dd720a87e0ccb3e182350154e613"),
    "barrier-cdp-8t-multiblock2": (4, 2028894,
        "0b5f7f304a667e0bfc40afedb37761cd5c81b0c0263511a5391b66551cc0b7a9"),
    "barrier-cdp-8t-multiblock4": (3, 2085367,
        "c0894ec5a39d12ee22e7306740f056db8e71098f9a5963cc413c9cdaf3c6a59c"),
    "barrier-cdp-block": (2, 2152328,
        "d1fd9f23a8a370fdc90ec36143fe01916ba727f3e32dcf62436933db8294adf5"),
    "barrier-cdp-coarsen4": (41, 1494768,
        "47f8dc3bf88883fe6808f103a3d9b7dcb264983a4af622fae6688073f87b0cbf"),
    "barrier-cdp-grid": (2, 2143237,
        "7c3e2af2eca396d5509c471dbad1c7fd5dc0144c4eb2aaf185e035d4ddf2b3df"),
    "barrier-cdp-multiblock": (2, 2152328,
        "d1fd9f23a8a370fdc90ec36143fe01916ba727f3e32dcf62436933db8294adf5"),
    "barrier-exchange": (1, 172,
        "8d35f05e89aa224ba39bde1ad2be2b93666480736a90c8c2a832877a3550cc20"),
    "block-3d": (1, 408,
        "f152619bb297d9700b81e183cc570cdd4772684423106e39f493de51efed7d00"),
    "early-exit": (1, 84,
        "fab7b486356f02abfd3e23e969194aa2d18807941ce0505d3fb49b1c546b7be2"),
    "mixed-blocks-8t-multiblock2": (4, 2075547,
        "d09fc3e73c0264e6e23a90dd83b30fcddaf7b329ed7a16cc3e6041f4b5bce7ca"),
    "mixed-blocks-8t-multiblock4": (3, 2136052,
        "223ea3a57382fd85c38324f1a2f9987418ea5466ca41088a9dad374cc6a78a02"),
    "mixed-blocks-block": (2, 2208333,
        "43f2df9dc95b3d531681a6c9c7dc687dd3f8c176644c8fc9dfb8087bbf14566b"),
    "mixed-blocks-grid": (2, 2198581,
        "50b06431aad7cdb79c5af57c1aae55c31a82b521c56dc4f29ddb15bb33d33252"),
    "mixed-blocks-multiblock": (2, 2208333,
        "43f2df9dc95b3d531681a6c9c7dc687dd3f8c176644c8fc9dfb8087bbf14566b"),
    "promoted-jump": (1, 523787,
        "0f3032c58a8f3cf5cb21de77c6f99eaadb92f07ab1e9407db46917f726565d8c"),
    "reduce": (1, 78164,
        "5ab3adae8a699b6992994796d8ccc36904d73d18b05fb2f9ea44f17e8cd73726"),
    "syncthreads-clocks": (1, 10272,
        "0b2da177031082ca9acaf9e57156917622e90a5468343b82be327ff7cd478c5e"),
}


def fingerprint(trace):
    encoded = encode_trace(trace)
    digest = hashlib.sha256(json.dumps(
        encoded, separators=(",", ":")).encode("utf-8")).hexdigest()
    return (len(trace.grids), sum(g.total_cycles for g in trace.grids),
            digest)


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_costs_pinned(case):
    assert fingerprint(CASES[case]()) == EXPECTED[case]


@pytest.mark.parametrize("name", sorted(GROUPED_SOURCES))
@pytest.mark.parametrize("group", (2, 4))
def test_grouped_children_span_parent_blocks(name, group):
    """A multi-block group gathers the children of several parent blocks:
    it computes CDP's outputs, with a trace unlike block granularity's."""
    source = GROUPED_SOURCES[name]
    reference, _ = _grouped(source, None)
    outputs, dev = _grouped(source, OptConfig(aggregate="multiblock",
                                              group_blocks=group))
    assert outputs_match(reference, outputs, rtol=1e-9)
    _, block = _grouped(source, OptConfig(aggregate="block"))
    assert fingerprint(dev.trace)[2] != fingerprint(block.trace)[2]


@pytest.mark.parametrize("name", sorted(GROUPED_SOURCES))
def test_group_sizes_share_one_artifact(name):
    """Group sizes differ only in the ``_AGG_GRANULARITY`` value, so the
    group-2 and group-4 runs instantiate one cached artifact and keep
    their pinned traces. Group 4 compiles it, so group 2 runs only if it
    sizes its buffers for its own 3 groups, not the compiler's 2."""
    cache = CompiledKernelCache()
    devices = {group: _grouped(GROUPED_SOURCES[name], OptConfig(
        aggregate="multiblock", group_blocks=group), cache)[1]
        for group in (4, 2)}
    assert devices[4].module.artifact is devices[2].module.artifact
    for group, dev in devices.items():
        assert fingerprint(dev.trace) == \
            EXPECTED["%s-8t-multiblock%d" % (name, group)]

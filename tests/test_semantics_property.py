"""Property-based end-to-end test: the transformations never change program
results, for random workloads and random optimization configurations.

This is the framework's central correctness contract (Sec. VI: "any
combination could be applied in any order while generating correct code").
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import from_edges
from repro.engine import Module
from repro.harness import outputs_match
from repro.runtime import Device, blocks
from repro.transforms import OptConfig, transform

SRC = """
__global__ void child(int *col, int *dist, int *out_n, int level, int start,
                      int degree) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < degree) {
        int v = col[start + tid];
        if (atomicCAS(&dist[v], -1, level) == -1) {
            atomicAdd(out_n, 1);
        }
    }
}

__global__ void parent(int *row, int *col, int *dist, int *out_n, int n,
                       int level) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        int start = row[tid];
        int degree = row[tid + 1] - start;
        if (degree > 0) {
            child<<<(degree + 31) / 32, 32>>>(col, dist, out_n, level,
                                              start, degree);
        }
    }
}
"""


def run_config(graph, config):
    if config is None:
        module = Module(SRC)
    else:
        result = transform(SRC, config)
        module = Module(result.program, result.meta)
    dev = Device(module)
    row = dev.upload(graph.row)
    col = dev.upload(graph.col)
    dist = dev.alloc("int", graph.num_vertices, fill=-1)
    out_n = dev.alloc("int", 1)
    dist[0] = 0
    dev.launch("parent", blocks(graph.num_vertices, 64), 64,
               row, col, dist, out_n, graph.num_vertices, 1)
    dev.sync()
    return {"dist": dist.to_numpy(), "count": out_n.to_numpy()}


configs = st.builds(
    OptConfig,
    threshold=st.one_of(st.none(), st.integers(1, 512)),
    coarsen_factor=st.one_of(st.none(), st.integers(1, 64)),
    aggregate=st.one_of(st.none(),
                        st.sampled_from(["warp", "block", "multiblock",
                                         "grid"])),
    group_blocks=st.integers(1, 16),
)

graphs = st.builds(
    lambda n, density, seed: _graph(n, density, seed),
    n=st.integers(4, 80),
    density=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)


def _graph(n, density, seed):
    rng = np.random.default_rng(seed)
    m = n * density
    return from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m),
                      seed=seed)


@given(graph=graphs, config=configs)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_transformed_code_preserves_results(graph, config):
    reference = run_config(graph, None)
    transformed = run_config(graph, config)
    assert outputs_match(reference, transformed)


@given(config=configs)
@settings(max_examples=40, deadline=None)
def test_transformed_source_reparses(config):
    from repro.minicuda import parse, print_source
    result = transform(SRC, config)
    text = result.source
    assert print_source(parse(text)) == text


@given(graph=graphs,
       order=st.permutations(["T", "C", "A"]))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pass_order_independence(graph, order):
    """Sec. VI: the passes are independent; any application order is correct.
    (The paper picks T->C->A for optimization quality, not correctness.)"""
    config = OptConfig(threshold=32, coarsen_factor=4, aggregate="block")
    reference = run_config(graph, None)
    result = transform(SRC, config, order=tuple(order))
    module = Module(result.program, result.meta)
    dev = Device(module)
    row = dev.upload(graph.row)
    col = dev.upload(graph.col)
    dist = dev.alloc("int", graph.num_vertices, fill=-1)
    out_n = dev.alloc("int", 1)
    dist[0] = 0
    dev.launch("parent", blocks(graph.num_vertices, 64), 64,
               row, col, dist, out_n, graph.num_vertices, 1)
    dev.sync()
    outputs = {"dist": dist.to_numpy(), "count": out_n.to_numpy()}
    assert outputs_match(reference, outputs)

"""Shared fixtures: canonical kernel sources and small datasets; the
hypothesis profiles."""

import pytest
from hypothesis import settings

# Tier-1 draws the same examples on every run, so a red run reproduces.
# CI also runs the property tests under ``--hypothesis-profile=explore``,
# which draws new random examples each time. Neither keeps an example
# database.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None)
settings.load_profile("tier1")

#: The paper's Fig. 3(a) shape: a parent dynamically launching a child.
BFS_LIKE_SRC = """
__global__ void child(int *edges, int *dist, int level, int start, int degree) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < degree) {
        int v = edges[start + tid];
        if (atomicCAS(&dist[v], -1, level) == -1) {
            dist[v] = level;
        }
    }
}

__global__ void parent(int *row, int *edges, int *dist, int n, int level) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        int start = row[tid];
        int degree = row[tid + 1] - start;
        if (degree > 0) {
            child<<<(degree + 255) / 256, 256>>>(edges, dist, level, start, degree);
        }
    }
}
"""

#: A child kernel thresholding must refuse (barrier + shared memory).
BARRIER_CHILD_SRC = """
__global__ void reduce_child(float *data, float *out, int n) {
    __shared__ float buf[256];
    int tid = threadIdx.x;
    buf[tid] = tid < n ? data[tid] : 0.0f;
    __syncthreads();
    for (int s = 128; s > 0; s = s / 2) {
        if (tid < s) {
            buf[tid] = buf[tid] + buf[tid + s];
        }
        __syncthreads();
    }
    if (tid == 0) {
        out[blockIdx.x] = buf[0];
    }
}

__global__ void parent(float *data, float *out, int *sizes, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < n) {
        int size = sizes[tid];
        if (size > 0) {
            reduce_child<<<(size + 255) / 256, 256>>>(data, out, size);
        }
    }
}
"""


@pytest.fixture
def bfs_like_source():
    return BFS_LIKE_SRC


@pytest.fixture
def barrier_child_source():
    return BARRIER_CHILD_SRC


@pytest.fixture
def tiny_graph():
    from repro.datasets import uniform_random_graph
    return uniform_random_graph(n=120, avg_degree=8, seed=42)


@pytest.fixture
def skewed_graph():
    from repro.datasets import kron_graph
    return kron_graph(scale=7, edge_factor=6, seed=3)

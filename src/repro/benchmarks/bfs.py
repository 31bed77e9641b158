"""BFS — level-synchronous breadth-first search (SHOC-style, Table I).

Nested parallelism: a frontier vertex's unvisited neighbors. The CDP parent
launches one child grid per frontier vertex; the No-CDP parent iterates the
adjacency list in the parent thread.
"""

import numpy as np

from ..datasets import kron_graph, road_graph, web_graph
from ..runtime.host import blocks
from .common import Benchmark, scaled

_CHILD = """
__global__ void bfs_child(int *col, int *dist, int *out_f, int *out_n,
                          int level, int start, int degree) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < degree) {
        int v = col[start + tid];
        if (atomicCAS(&dist[v], -1, level) == -1) {
            int idx = atomicAdd(out_n, 1);
            out_f[idx] = v;
        }
    }
}
"""

_CDP_PARENT = """
__global__ void bfs_kernel(int *row, int *col, int *dist, int *in_f,
                           int in_n, int *out_f, int *out_n, int level) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < in_n) {
        int u = in_f[tid];
        int start = row[u];
        int degree = row[u + 1] - start;
        if (degree > 0) {
            bfs_child<<<(degree + %(cb)d - 1) / %(cb)d, %(cb)d>>>(
                col, dist, out_f, out_n, level, start, degree);
        }
    }
}
"""

_NOCDP = """
__global__ void bfs_kernel(int *row, int *col, int *dist, int *in_f,
                           int in_n, int *out_f, int *out_n, int level) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < in_n) {
        int u = in_f[tid];
        int start = row[u];
        int end = row[u + 1];
        for (int i = start; i < end; ++i) {
            int v = col[i];
            if (atomicCAS(&dist[v], -1, level) == -1) {
                int idx = atomicAdd(out_n, 1);
                out_f[idx] = v;
            }
        }
    }
}
"""


class BFSBenchmark(Benchmark):
    name = "BFS"
    dataset_names = ("KRON", "CNR", "ROAD-NY")
    child_block = 32

    def cdp_source(self):
        return _CHILD + _CDP_PARENT % {"cb": self.child_block}

    def nocdp_source(self):
        return _NOCDP

    def build_dataset(self, dataset_name, scale=1.0):
        if dataset_name == "KRON":
            return kron_graph(scale=max(7, 11 + int(np.log2(max(scale, 1e-6)))))
        if dataset_name == "CNR":
            return web_graph(n=scaled(3000, scale, 200))
        if dataset_name == "ROAD-NY":
            side = scaled(50, scale ** 0.5, 12)
            return road_graph(width=side, height=side)
        raise KeyError(dataset_name)

    def source_vertex(self, graph):
        return int(np.argmax(graph.degrees()))

    def drive(self, device, graph):
        n = graph.num_vertices
        row = device.upload(graph.row)
        col = device.upload(graph.col)
        dist = device.alloc("int", n, fill=-1)
        frontier_a = device.alloc("int", n)
        frontier_b = device.alloc("int", n)
        out_n = device.alloc("int", 1)

        src = self.source_vertex(graph)
        dist[src] = 0
        frontier_a[0] = src
        in_n, level = 1, 1
        in_f, out_f = frontier_a, frontier_b
        while in_n > 0:
            out_n[0] = 0
            device.launch("bfs_kernel", blocks(in_n, 256), 256,
                          row, col, dist, in_f, in_n, out_f, out_n, level)
            device.sync()
            in_n = int(out_n[0])
            in_f, out_f = out_f, in_f
            level += 1
        return {"dist": dist.to_numpy()}

"""SSSP — worklist-based single-source shortest paths (Lonestar-style).

Like BFS but with weighted relaxations: a child thread relaxes one outgoing
edge with atomicMin and appends improved vertices to the next worklist,
deduplicated per iteration with an iteration-stamp array.
"""

import numpy as np

from ..datasets import kron_graph, road_graph, web_graph
from ..runtime.host import blocks
from .common import INF, Benchmark, scaled

_CHILD = """
__global__ void sssp_child(int *col, int *wts, int *dist, int *stamp,
                           int *out_f, int *out_n, int du, int start,
                           int degree, int iter) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < degree) {
        int v = col[start + tid];
        int nd = du + wts[start + tid];
        if (atomicMin(&dist[v], nd) > nd) {
            if (atomicExch(&stamp[v], iter) != iter) {
                int idx = atomicAdd(out_n, 1);
                out_f[idx] = v;
            }
        }
    }
}
"""

_CDP_PARENT = """
__global__ void sssp_kernel(int *row, int *col, int *wts, int *dist,
                            int *stamp, int *in_f, int in_n, int *out_f,
                            int *out_n, int iter) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < in_n) {
        int u = in_f[tid];
        int start = row[u];
        int degree = row[u + 1] - start;
        int du = dist[u];
        if (degree > 0) {
            sssp_child<<<(degree + %(cb)d - 1) / %(cb)d, %(cb)d>>>(
                col, wts, dist, stamp, out_f, out_n, du, start, degree, iter);
        }
    }
}
"""

_NOCDP = """
__global__ void sssp_kernel(int *row, int *col, int *wts, int *dist,
                            int *stamp, int *in_f, int in_n, int *out_f,
                            int *out_n, int iter) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < in_n) {
        int u = in_f[tid];
        int start = row[u];
        int end = row[u + 1];
        int du = dist[u];
        for (int i = start; i < end; ++i) {
            int v = col[i];
            int nd = du + wts[i];
            if (atomicMin(&dist[v], nd) > nd) {
                if (atomicExch(&stamp[v], iter) != iter) {
                    int idx = atomicAdd(out_n, 1);
                    out_f[idx] = v;
                }
            }
        }
    }
}
"""


class SSSPBenchmark(Benchmark):
    name = "SSSP"
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
            side = scaled(40, scale ** 0.5, 12)
            return road_graph(width=side, height=side)
        raise KeyError(dataset_name)

    def drive(self, device, graph):
        n = graph.num_vertices
        row = device.upload(graph.row)
        col = device.upload(graph.col)
        wts = device.upload(graph.weights)
        dist = device.alloc("int", n, fill=INF)
        stamp = device.alloc("int", n, fill=-1)
        frontier_a = device.alloc("int", n)
        frontier_b = device.alloc("int", n)
        out_n = device.alloc("int", 1)

        src = int(np.argmax(graph.degrees()))
        dist[src] = 0
        frontier_a[0] = src
        in_n, iteration = 1, 1
        in_f, out_f = frontier_a, frontier_b
        while in_n > 0:
            out_n[0] = 0
            device.launch("sssp_kernel", blocks(in_n, 256), 256,
                          row, col, wts, dist, stamp, in_f, in_n, out_f,
                          out_n, iteration)
            device.sync()
            in_n = int(out_n[0])
            in_f, out_f = out_f, in_f
            iteration += 1
        return {"dist": dist.to_numpy()}

"""SP — Survey Propagation on random k-SAT (Lonestar-style).

Each variable pushes survey contributions to every clause it occurs in; the
nested parallelism per parent thread is the variable's occurrence count
(≈ k·m/n on random instances — *small*, which is why the paper finds SP on
RAND-3 performs poorly under CDP: all child grids have fewer than 32
threads). The grid dimension uses the ``ceil((float)N/b)`` Fig. 4(d) pattern
to exercise that branch of the thread-count analysis.
"""

import numpy as np

from ..datasets import random_ksat
from ..runtime.host import blocks
from .common import Benchmark, scaled

_CHILD = """
__global__ void sp_child(int *var_occ, int *occ_slot, float *eta,
                         float *new_eta, float *bias, int var, int start,
                         int degree) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    if (tid < degree) {
        int c = var_occ[start + tid];
        int slot = occ_slot[start + tid];
        float e = eta[c];
        float contribution = (1.0f - e) * (1.0f + 0.5f * bias[var])
                             / (2.0f + (float)slot);
        atomicAdd(&new_eta[c], contribution);
    }
}
"""

_CDP_PARENT = """
__global__ void sp_kernel(int *var_row, int *var_occ, int *occ_slot,
                          float *eta, float *new_eta, float *bias,
                          int nvars) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    if (x < nvars) {
        int start = var_row[x];
        int degree = var_row[x + 1] - start;
        if (degree > 0) {
            sp_child<<<ceil((float)degree / %(cb)d), %(cb)d>>>(
                var_occ, occ_slot, eta, new_eta, bias, x, start, degree);
        }
    }
}
"""

_NOCDP = """
__global__ void sp_kernel(int *var_row, int *var_occ, int *occ_slot,
                          float *eta, float *new_eta, float *bias,
                          int nvars) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    if (x < nvars) {
        int start = var_row[x];
        int end = var_row[x + 1];
        for (int i = start; i < end; ++i) {
            int c = var_occ[i];
            int slot = occ_slot[i];
            float e = eta[c];
            float contribution = (1.0f - e) * (1.0f + 0.5f * bias[x])
                                 / (2.0f + (float)slot);
            atomicAdd(&new_eta[c], contribution);
        }
    }
}
"""


class SPBenchmark(Benchmark):
    name = "SP"
    dataset_names = ("RAND-3", "5-SAT")
    child_block = 32
    iterations = 3

    def cdp_source(self):
        return _CHILD + _CDP_PARENT % {"cb": self.child_block}

    def nocdp_source(self):
        return _NOCDP

    def build_dataset(self, dataset_name, scale=1.0):
        if dataset_name == "RAND-3":
            return random_ksat(num_vars=scaled(800, scale, 60),
                               num_clauses=scaled(3360, scale, 250), k=3,
                               name="RAND-3")
        if dataset_name == "5-SAT":
            # Higher clause width and density: variable occurrence lists are
            # several times longer than RAND-3's, like the 5-SAT instance.
            return random_ksat(num_vars=scaled(500, scale, 40),
                               num_clauses=scaled(2400, scale, 200), k=5,
                               name="5-SAT", seed=9)
        raise KeyError(dataset_name)

    def drive(self, device, instance):
        nvars = instance.num_vars
        nclauses = instance.num_clauses
        var_row = device.upload(instance.var_row)
        var_occ = device.upload(instance.var_occ)
        occ_slot = device.upload(instance.var_occ_slot)
        rng = np.random.default_rng(13)
        eta = device.upload(rng.random(nclauses) * 0.5)
        new_eta = device.alloc("float", nclauses)
        bias = device.upload(rng.random(nvars) - 0.5)

        for _ in range(self.iterations):
            new_eta.fill(0.0)
            device.launch("sp_kernel", blocks(nvars, 256), 256,
                          var_row, var_occ, occ_slot, eta, new_eta, bias,
                          nvars)
            device.sync()
            eta, new_eta = new_eta, eta
        return {"eta": eta.to_numpy()}

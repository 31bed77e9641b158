"""Random k-SAT instances for the Survey Propagation benchmark.

The paper uses random-42000-10000-3 (RAND-3: 10,000 variables, 42,000
3-clauses) and a satisfiable 5-SAT competition instance (117,296 literals).
We generate scaled-down instances with the same clause-width structure; the
SP kernel's nested parallelism is the *variable occurrence list*, whose size
distribution these generators match (binomial around k·m/n).
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class SATInstance:
    """CNF formula with both clause→literal and variable→occurrence CSR."""

    num_vars: int
    k: int
    clause_row: np.ndarray     # int64[num_clauses+1]
    clause_lits: np.ndarray    # int64: variable index of each literal slot
    clause_signs: np.ndarray   # int64: +1 / -1 per literal slot
    var_row: np.ndarray        # int64[num_vars+1]
    var_occ: np.ndarray        # int64: clause index per occurrence
    var_occ_slot: np.ndarray   # int64: literal slot within the clause
    name: str = "sat"

    @property
    def num_clauses(self):
        return len(self.clause_row) - 1

    @property
    def num_literals(self):
        return len(self.clause_lits)

    def __repr__(self):
        return "SATInstance(%s: %d vars, %d clauses, %d literals)" % (
            self.name, self.num_vars, self.num_clauses, self.num_literals)


def random_ksat(num_vars=800, num_clauses=3200, k=3, seed=5, name="RAND-3"):
    """Uniform random k-SAT: every clause draws k distinct variables."""
    rng = np.random.default_rng(seed)
    lits = np.empty((num_clauses, k), dtype=np.int64)
    for i in range(num_clauses):
        lits[i] = rng.choice(num_vars, size=k, replace=False)
    signs = rng.choice(np.array([-1, 1], dtype=np.int64),
                       size=(num_clauses, k))

    clause_row = np.arange(0, (num_clauses + 1) * k, k, dtype=np.int64)
    clause_lits = lits.ravel()
    clause_signs = signs.ravel()

    # Invert into per-variable occurrence lists.
    order = np.argsort(clause_lits, kind="stable")
    var_row = np.zeros(num_vars + 1, dtype=np.int64)
    np.add.at(var_row, clause_lits + 1, 1)
    var_row = np.cumsum(var_row)
    slots = order
    var_occ = slots // k
    var_occ_slot = slots % k
    return SATInstance(num_vars, k, clause_row, clause_lits, clause_signs,
                       var_row, var_occ.astype(np.int64),
                       var_occ_slot.astype(np.int64), name)

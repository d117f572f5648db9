"""(neighborhood, degree)-core decomposition and the degree-core baseline.

The hybrid algorithm first computes neighborhood core numbers c, then for
each level k degree-peels the strong k-core on a `model.Residual`: a popped
node's secondary value d_k is the level at which it leaves the bucket queue.
The membership rule C(k,d) = {v : d_k(v) >= d} reproduces the definitional
fixpoint.  Degree-core numbers are level 1 of the same peel.

Level k starts from its own hyperedges only.  E_k, the hyperedges whose
members all have c >= k, is a prefix of the hyperedges sorted once by
descending minimum member core, and for k >= 1 its members are exactly
V_k = {v : c(v) >= k}, a prefix of the nodes sorted by descending core.  A
level therefore costs its own hyperedges, not all of H's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .model import Hypergraph, Residual
from .peel import BucketQueue, CoreAssignment
from .localcore import local_core


@dataclass
class KDCoreResult:
    kmax: int
    # levels[k] maps surviving node -> d_k(v), for k in [1, kmax]
    levels: dict[int, dict[int, int]] = field(default_factory=dict)

    def core_members(self, k: int, d: int) -> set[int]:
        return {v for v, dv in self.levels.get(k, {}).items() if dv >= d}


def kd_decompose(H: Hypergraph) -> KDCoreResult:
    cores = local_core(H).core
    kmax = max(cores, default=0)
    result = KDCoreResult(kmax=kmax)
    core = np.array(cores, dtype=np.int64)
    # the least member core of each hyperedge: e is in E_k iff it is >= k
    low = np.minimum.reduceat(core[H.edge_flat], H.edge_starts) if H.edges else core[:0]
    nodes, node_ends = _descending_prefixes(core, kmax)
    edges, edge_ends = _descending_prefixes(low, kmax)
    for k in range(1, kmax + 1):
        R = Residual(H, edges[: edge_ends[k]])
        result.levels[k] = _degree_peel_level(R, nodes[: node_ends[k]], k)
    return result


def _descending_prefixes(values: np.ndarray, kmax: int) -> tuple[list[int], list[int]]:
    """Indices sorted by descending value, and for each k in [0, kmax] the
    length of the prefix whose values are >= k."""
    order = np.argsort(-values, kind="stable")
    ends = np.searchsorted(-values[order], -np.arange(kmax + 1), side="right")
    return order.tolist(), ends.tolist()


def _degree_peel_level(R: Residual, vk: Iterable[int], k: int) -> dict[int, int]:
    """Degree-peel the residual R on its nodes vk; a neighbor that would drop
    below k residual neighbors is kept at the current level instead of
    moving up."""
    B = BucketQueue(R.H.n)
    for v in vk:
        B.put(v, R.degree[v])
    dvals: dict[int, int] = {}
    while (popped := B.pop_min()) is not None:
        d, v = popped
        dvals[v] = d
        for u in R.delete(v):
            # a degree at or below d moves u to d whatever its neighbor count
            up = R.degree[u] > d and len(R.neighbors(u)) >= k
            B.put(u, R.degree[u] if up else d)
    return dvals


def degree_core(H: Hypergraph) -> CoreAssignment:
    """Exact degree-based core numbers: level 1 of the (k,d)-decomposition,
    where every node with a live hyperedge has a residual neighbor."""
    dvals = _degree_peel_level(Residual(H), range(H.n), 1)
    return CoreAssignment([dvals[v] for v in range(H.n)], {})


def kd_fixpoint_oracle(H: Hypergraph, k: int, d: int) -> set[int]:
    """Definitional (k,d)-core: delete nodes violating either threshold in the
    strong residual until fixpoint.  Maximal by construction."""
    alive = [True] * H.n
    changed = True
    while changed:
        changed = False
        for v in range(H.n):
            if not alive[v]:
                continue
            if (len(H.residual_neighbors(v, alive)) < k
                    or sum(all(alive[u] for u in H.edges[ei])
                           for ei in H.incident_edges(v)) < d):
                alive[v] = False
                changed = True
    return {v for v in range(H.n) if alive[v]}

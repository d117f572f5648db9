"""(neighborhood, degree)-core decomposition and the degree-core baseline.

The hybrid algorithm first computes neighborhood core numbers c, then for
each level k degree-peels the strong k-core: a popped node's secondary value
d_k is the level at which it leaves the bucket queue.  The membership rule
C(k,d) = {v : d_k(v) >= d} reproduces the definitional fixpoint.
Degree-core numbers are level 1 of the same peel.

A level keeps its own live-edge and degree lists, and no pair counts: the
degree peel reads a node's neighbor count only to compare it with k, which
`_has_neighbors` answers with a union that stops growing early.  Level k
starts from its own hyperedges only.  E_k, the hyperedges whose members all
have c >= k, is a prefix of the hyperedges sorted once by descending minimum
member core, and for k >= 1 its members are exactly V_k = {v : c(v) >= k},
a prefix of the nodes sorted by descending core.  A level therefore costs
its own hyperedges, not all of H's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .model import Hypergraph
from .peel import BucketQueue, CoreAssignment
from .localcore import local_core


@dataclass
class KDCoreResult:
    kmax: int
    # levels[k] maps surviving node -> d_k(v), for k in [1, kmax]
    levels: dict[int, dict[int, int]] = field(default_factory=dict)
    # the levels' work, summed: see _degree_peel_level
    counters: dict[str, int] = field(default_factory=dict)

    def core_members(self, k: int, d: int) -> set[int]:
        return {v for v, dv in self.levels.get(k, {}).items() if dv >= d}


def kd_decompose(H: Hypergraph) -> KDCoreResult:
    cores = local_core(H).core
    kmax = max(cores, default=0)
    result = KDCoreResult(kmax, counters={"neighborhood_recomputations": 0, "cell_updates": 0})
    core = np.array(cores, dtype=np.int64)
    # the least member core of each hyperedge: e is in E_k iff it is >= k
    low = np.minimum.reduceat(core[H.edge_flat], H.edge_starts) if H.edges else core[:0]
    nodes, node_ends = _descending_prefixes(core, kmax)
    edges, edge_ends = _descending_prefixes(low, kmax)
    for k in range(1, kmax + 1):
        result.levels[k], counters = _degree_peel_level(
            H, edges[: edge_ends[k]], nodes[: node_ends[k]], k)
        for key, value in counters.items():
            result.counters[key] += value
    return result


def _descending_prefixes(values: np.ndarray, kmax: int) -> tuple[list[int], list[int]]:
    """Indices sorted by descending value, and for each k in [0, kmax] the
    length of the prefix whose values are >= k."""
    order = np.argsort(-values, kind="stable")
    ends = np.searchsorted(-values[order], -np.arange(kmax + 1), side="right")
    return order.tolist(), ends.tolist()


def _degree_peel_level(H: Hypergraph, edges: Iterable[int], vk: Iterable[int],
                       k: int) -> tuple[dict[int, int], dict[str, int]]:
    """Degree-peel the hyperedges `edges`, strongly induced on their members,
    on the nodes vk; a neighbor that would drop below k residual neighbors
    is kept at the current level instead of moving up.  Returns d_k per
    node and the level's work: one `cell_updates` per recounted neighbor,
    as in `peel`, and one `neighborhood_recomputations` per early-stopping
    `_has_neighbors` check."""
    live = [False] * len(H.edges)
    degree = [0] * H.n
    for ei in edges:
        live[ei] = True
        for u in H.edges[ei]:
            degree[u] += 1
    B = BucketQueue(H.n)
    for v in vk:
        B.put(v, degree[v])
    dvals: dict[int, int] = {}
    updates = checks = 0
    while (popped := B.pop_min()) is not None:
        d, v = popped
        dvals[v] = d
        # kill v's live hyperedges; their members are the nodes to recount
        changed: set[int] = set()
        for ei in H.inc_flat[H.inc_offsets[v] : H.inc_offsets[v + 1]]:
            if live[ei]:
                live[ei] = False
                e = H.edges[ei]
                changed.update(e)
                for u in e:
                    degree[u] -= 1
        changed.discard(v)
        for u in changed:
            updates += 1
            # a degree at or below d moves u to d whatever its neighbor count
            if degree[u] > d:
                checks += 1
                B.put(u, degree[u] if _has_neighbors(H, live, u, k) else d)
            else:
                B.put(u, d)
    return dvals, {"neighborhood_recomputations": checks, "cell_updates": updates}


def _has_neighbors(H: Hypergraph, live: list[bool], v: int, k: int) -> bool:
    """Whether v has at least k neighbors through its live hyperedges.  The
    union stops growing once it holds more than k nodes, v among them."""
    out: set[int] = set()
    for ei in H.inc_flat[H.inc_offsets[v] : H.inc_offsets[v + 1]]:
        if live[ei]:
            out.update(H.edges[ei])
            if len(out) > k:
                return True
    out.discard(v)
    return len(out) >= k


def degree_core(H: Hypergraph) -> CoreAssignment:
    """Exact degree-based core numbers: level 1 of the (k,d)-decomposition,
    where every node with a live hyperedge has a residual neighbor, so the
    peel runs over all of H's hyperedges."""
    dvals, counters = _degree_peel_level(H, range(len(H.edges)), range(H.n), 1)
    return CoreAssignment([dvals[v] for v in range(H.n)], counters)


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

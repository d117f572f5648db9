"""Bucket-based peeling decomposition: Peel and the bounded variant E-Peel.

Both run one loop, `_peel`, over a `model.Residual`: Peel starts every node
at its exact neighbor count, E-Peel at the local lower bound and defers the
recount until the node is popped.  Counts are recomputed against the
surviving hypergraph (deleting a node can drop a neighbor's count by more
than one, so decrement-by-one graph peeling does not apply).  The
`neighborhood_recomputations` counter tracks exactly those residual
recomputations, which is what makes E-Peel's work ratio measurable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from .model import Hypergraph, Residual


@dataclass
class CoreAssignment:
    """Node -> core number, plus instrumentation counters."""

    core: list[int]
    counters: dict[str, Any] = field(default_factory=dict)
    report: Any = None

    def level_set(self, k: int) -> set[int]:
        return {v for v, c in enumerate(self.core) if c >= k}


class BucketQueue:
    """Vector of cells B[i]; each queued node sits in the cell of its key.

    Cells are lazy heaps: `put` pushes a fresh entry, and `pop_min` skips
    stale ones and takes the lowest id of the lowest non-empty cell.  Its
    search starts at the low-water mark `low`, which `put` lowers, and stops
    when no node is queued, leaving the stale entries behind."""

    def __init__(self, n: int):
        self.cells: list[list[int]] = []
        self.key = [-1] * n  # -1: not queued
        self.low = 0
        self.size = 0

    def put(self, v: int, k: int) -> None:
        """Key v at k, queueing it if it is not queued (popped ones included)."""
        old = self.key[v]
        if old == k:
            return
        if old < 0:
            self.size += 1
        self.key[v] = k
        while len(self.cells) <= k:
            self.cells.append([])
        heapq.heappush(self.cells[k], v)
        if k < self.low:
            self.low = k

    def pop_min(self) -> tuple[int, int] | None:
        """Dequeue and return the least (key, node), or None if none is queued."""
        if not self.size:
            return None
        cells, key, k = self.cells, self.key, self.low
        while True:
            cell = cells[k]
            while cell:
                v = heapq.heappop(cell)
                if key[v] == k:
                    key[v] = -1
                    self.size -= 1
                    self.low = k
                    return k, v
            k += 1


def local_lower_bound(H: Hypergraph, v: int) -> int:
    """max(|e_m(v)| - 1, min_u |N(u)|): guaranteed <= c(v)."""
    return max(_max_incident_card(H, v) - 1, _min_neighbor_count(H))


def _max_incident_card(H: Hypergraph, v: int) -> int:
    return max(len(H.edges[ei]) for ei in H.incident_edges(v))


def _min_neighbor_count(H: Hypergraph) -> int:
    return min((H.neighbor_count(u) for u in range(H.n)), default=0)


def peel(H: Hypergraph) -> CoreAssignment:
    """Exact neighborhood core numbers by processing nodes in increasing
    residual neighborhood size."""
    return _peel(H, [H.neighbor_count(v) for v in range(H.n)], bounded=False)


def e_peel(H: Hypergraph) -> CoreAssignment:
    """Peel with the local lower bound: neighbors still sitting on their bound
    are not recomputed or moved, so the recomputation counter never exceeds
    peel's on the same input."""
    min_nbr = _min_neighbor_count(H)
    keys = [max(_max_incident_card(H, v) - 1, min_nbr) for v in range(H.n)]
    return _peel(H, keys, bounded=True)


def _peel(H: Hypergraph, keys: list[int], bounded: bool) -> CoreAssignment:
    """Bucket-peel the residual from the initial cell keys.  A node popped at
    key k is assigned core k and deleted, and each neighbor it had is
    recounted and moved to max(count, k).  With `bounded`, every key is only
    a lower bound: a node popped on its bound is recounted and requeued
    instead, and is not recounted as a neighbor until then."""
    n = H.n
    core = [0] * n
    # exact keys are one residual count per node
    counters = {"neighborhood_recomputations": 0 if bounded else n, "cell_updates": 0}
    on_bound = [bounded] * n
    B = BucketQueue(n)
    for v, key in enumerate(keys):
        B.put(v, key)
    R = Residual(H)
    while (popped := B.pop_min()) is not None:
        k, v = popped
        if on_bound[v]:
            on_bound[v] = False
            recount = [v]
        else:
            core[v] = k
            recount = [u for u in R.delete(v) if not on_bound[u]]
            counters["neighborhood_recomputations"] += 1
        for u in recount:
            B.put(u, max(len(R.neighbors(u)), k))
        counters["neighborhood_recomputations"] += len(recount)
        counters["cell_updates"] += len(recount)
    return CoreAssignment(core, counters)

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
    """Vector of cells B[i]; each node sits in the cell of its current key.

    Cells pop the lowest node id first.  Implemented as lazy heaps: a move
    to a new key pushes a fresh entry and stale entries are skipped on pop.
    """

    def __init__(self, n: int):
        self.cells: list[list[int]] = []
        self.key = [-1] * n

    def _cell(self, k: int) -> list[int]:
        while len(self.cells) <= k:
            self.cells.append([])
        return self.cells[k]

    def insert(self, v: int, k: int) -> None:
        self.key[v] = k
        heapq.heappush(self._cell(k), v)

    def move(self, v: int, k: int) -> None:
        if self.key[v] != k:
            self.insert(v, k)

    def pop(self, k: int) -> int | None:
        """Pop the lowest node currently keyed k, or None if the cell is empty."""
        cell = self._cell(k)
        while cell:
            v = heapq.heappop(cell)
            if self.key[v] == k:
                self.key[v] = -1
                return v
        return None


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
    """Bucket-peel the residual from the initial cell keys.  A popped node is
    assigned the current level and deleted, and each neighbor it had is
    recounted and moved to max(count, level).  With `bounded`, every key is
    only a lower bound: a node popped on its bound is recounted and requeued
    instead, and is not recounted as a neighbor until then."""
    n = H.n
    core = [0] * n
    # exact keys are one residual count per node
    counters = {"neighborhood_recomputations": 0 if bounded else n, "cell_updates": 0}
    on_bound = [bounded] * n
    B = BucketQueue(n)
    for v, key in enumerate(keys):
        B.insert(v, key)
    R = Residual(H)
    assigned = 0
    for k in range(1, n + 1):
        while (v := B.pop(k)) is not None:
            if on_bound[v]:
                on_bound[v] = False
                recount = [v]
            else:
                core[v] = k
                assigned += 1
                recount = [u for u in R.delete(v) if not on_bound[u]]
                counters["neighborhood_recomputations"] += 1
            for u in recount:
                B.move(u, max(len(R.neighbors(u)), k))
            counters["neighborhood_recomputations"] += len(recount)
            counters["cell_updates"] += len(recount)
        if assigned == n:
            break
    return CoreAssignment(core, counters)

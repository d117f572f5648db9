"""Heap-based peeling decomposition: Peel and the bounded variant E-Peel.

Both run one loop, `_peel`, over `model.Residual(H)`, the residual of all
of H with live pair counts: Peel starts every node at its exact neighbor
count, E-Peel at the local lower bound and defers the recount until the
node is popped.  A recount reads the residual's live neighbor count, which
`Residual.delete` keeps per node pair: deleting a node can drop a
neighbor's count by more than one, or by none while another live hyperedge
still holds the pair, so decrement-by-one graph peeling does not apply.
A dying hyperedge e lowers every member's count by |e| - 1 at once,
without looking its pair groups up; only groups that two or more
hyperedges hold are kept in `Residual.gcount` and decremented, and each
one still held gives its member one back.
The `neighborhood_recomputations` counter tracks exactly those residual
recounts, which is what makes E-Peel's work ratio measurable.  The exact
loop's deletion order, least residual neighbor count first, is also
Charikar's greedy peel, which `densest.greedy_densest` reads.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .model import Hypergraph, Residual


@dataclass
class CoreAssignment:
    """Node -> core number, plus instrumentation counters."""

    core: list[int]
    counters: dict[str, Any] = field(default_factory=dict)
    report: Any = None


def _lower_bounds(H: Hypergraph) -> np.ndarray:
    """The local lower bound of every node: its largest incident
    cardinality less one, or the least neighbor count if that is larger."""
    if not H.n:
        return np.zeros(0, dtype=np.int64)
    cards = np.diff(H.edge_offsets)
    largest = np.maximum.reduceat(cards[H.inc_flat], H.inc_offsets[:-1])
    return np.maximum(largest - 1, np.diff(H.nbr_offsets).min())


def peel(H: Hypergraph) -> CoreAssignment:
    """Exact neighborhood core numbers by processing nodes in increasing
    residual neighborhood size."""
    return _peel(H, np.diff(H.nbr_offsets).tolist(), bounded=False)[0]


def e_peel(H: Hypergraph) -> CoreAssignment:
    """Peel with the local lower bound: neighbors still sitting on their bound
    are not recomputed or moved, so the recomputation counter never exceeds
    peel's on the same input."""
    return _peel(H, _lower_bounds(H).tolist(), bounded=True)[0]


def _peel(H: Hypergraph, key: list[int], bounded: bool) -> tuple[CoreAssignment, list[int]]:
    """Peel the residual from the initial keys in `key`, which it rekeys in
    place, popping the least (key, id); returns the cores and the deletion
    order.  A popped node is deleted and assigned the largest key popped so
    far as its core, and each neighbor it had is recounted and rekeyed to its
    live count.  With `bounded`, every key is only a lower bound: a node
    popped on its bound is recounted and requeued instead, and is not
    recounted as a neighbor until then.

    The first pop at a key k above every earlier one finds each residual
    node with at least k residual neighbors: an exact key is the live count,
    and a bound is at most the node's core, all of which is still in the
    residual.  So the residual is then exactly the k-core."""
    n = H.n
    core = [0] * n
    order: list[int] = []
    updates = 0  # recounts of a neighbor or of a node popped on its bound
    on_bound = [bounded] * n
    # heap entries pack (key, id) as key << b | id; one whose key is not
    # key[id] is stale, and a popped node's key is -1
    b = n.bit_length()
    mask = (1 << b) - 1
    heap = [k << b | v for v, k in enumerate(key)]
    heapq.heapify(heap)
    R = Residual(H)
    count, delete, pop, push = R.count, R.delete, heapq.heappop, heapq.heappush
    top = 0  # the largest key popped so far
    while len(order) < n:  # stale entries outlast the last node
        entry = pop(heap)
        k, v = entry >> b, entry & mask
        if key[v] != k:
            continue
        key[v] = -1
        if k > top:
            top = k
        if on_bound[v]:
            on_bound[v] = False
            recount = [v]
        else:
            core[v] = top
            order.append(v)
            recount = delete(v)
            if bounded:  # an exact key is never on its bound
                recount = [u for u in recount if not on_bound[u]]
        for u in recount:
            c = count[u]
            if key[u] != c:
                key[u] = c
                push(heap, c << b | u)
        updates += len(recount)
    # each deletion is one more recount, and so is each exact initial key
    counters = {"neighborhood_recomputations": updates + (n if bounded else 2 * n),
                "cell_updates": updates}
    return CoreAssignment(core, counters), order

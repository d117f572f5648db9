"""(neighborhood, degree)-core decomposition and the degree-core baseline.

Neighborhood core numbers c come first.  Level k then degree-peels V_k =
{v : c(v) >= k} on E_k, the hyperedges whose members all have c >= k.
Degree-core numbers are level 1 of the same peel, on all of H.  V_k and
E_k are boolean masks over H's ids, and a level reads H's own incidence
and edge CSRs.

A level peels level-synchronously in numpy, like Batagelj and Zaversnik's
bucket peel on graphs: at threshold d a sub-round removes every node of
live degree <= d and every touched node (a member of a hyperedge the last
sub-round killed) with fewer than k live neighbors, and gives each d_k = d;
when none qualifies, d rises to the least live degree.  That is the
definitional fixpoint, so C(k,d) = {v : d_k(v) >= d} has no tie order.
No pair counts are kept: V_k is the neighborhood k-core of E_k, so only a
touched node can lack k neighbors, and only one without a live hyperedge
of more than k members is counted.  At k = 1 none is: a node without a
neighbor has degree 0, and the degree rule removes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import GuardError, Hypergraph, _ranges
from .peel import CoreAssignment
from .localcore import local_core

# Largest lattice (sum of c(v), one entry per level a node survives) that
# kd_decompose builds; the levels hold about 70 bytes per entry.
LATTICE_GUARD = 2**22


@dataclass
class KDCoreResult:
    kmax: int
    # levels[k] maps surviving node -> d_k(v), for k in [1, kmax], in
    # ascending node id order
    levels: dict[int, dict[int, int]] = field(default_factory=dict)
    # the levels' work, summed: removal sub-rounds and exact neighbor counts
    counters: dict[str, int] = field(default_factory=dict)


def kd_decompose(H: Hypergraph) -> KDCoreResult:
    core = np.array(local_core(H).core, dtype=np.int64)
    entries = int(core.sum())
    if entries > LATTICE_GUARD:
        raise GuardError(f"lattice guard: {entries} (k,d) entries > {LATTICE_GUARD}")
    kmax = int(core.max(initial=0))
    # each hyperedge's least member core: e is in E_k while it is at least k
    low = np.minimum.reduceat(core[H.edge_flat], H.edge_offsets[:-1])
    # one int object per node id, shared by every level's dict
    ids = np.arange(H.n, dtype=object)
    work = {"rounds": 0, "neighbor_recounts": 0}
    levels = {}
    for k in range(1, kmax + 1):
        nodes = core >= k
        dk = _peel_level(H, k, nodes.copy(), low >= k, work)
        levels[k] = dict(zip(ids[nodes].tolist(), dk[nodes].tolist()))
    return KDCoreResult(kmax, levels, work)


def degree_core(H: Hypergraph) -> CoreAssignment:
    """Exact degree-based core numbers: level 1 of the (k,d)-decomposition,
    where every node with a live hyperedge has a residual neighbor, so the
    peel runs over all of H's nodes and hyperedges."""
    work = {"rounds": 0, "neighbor_recounts": 0}
    live = np.ones(H.edge_offsets.size - 1, dtype=bool)
    dk = _peel_level(H, 1, np.ones(H.n, dtype=bool), live, work)
    return CoreAssignment(dk.tolist(), work)


def _distinct(x: np.ndarray, size: int) -> np.ndarray:
    """x's distinct values (all below size): one position per value reads back its own mark."""
    mark = np.empty(size, dtype=np.int64)
    at = np.arange(x.size)
    mark[x] = at
    return x[mark[x] == at]


def _rows(offsets: np.ndarray, flat: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR (offsets, flat)'s entries in each of rows, and how many each row holds."""
    starts = offsets[rows]
    count = offsets[rows + 1] - starts
    return flat[_ranges(starts, count)], count


def _has_neighbors(H: Hypergraph, us: np.ndarray, k: int, live: np.ndarray,
                   work: dict[str, int]) -> np.ndarray:
    """Whether each node of us has k neighbors through the hyperedges of
    live; a node with a live one of more than k members is not counted."""
    e, count = _rows(H.inc_offsets, H.inc_flat, us)
    owner = np.repeat(np.arange(us.size), count)
    keep = live[e]
    e, owner = e[keep], owner[keep]
    starts = H.edge_offsets[e]
    card = H.edge_offsets[e + 1] - starts
    passed = np.zeros(us.size, dtype=bool)
    passed[owner[card > k]] = True
    keep = ~passed[owner]
    starts, card, owner = starts[keep], card[keep], owner[keep]
    work["neighbor_recounts"] += us.size - int(passed.sum())
    member, owner = H.edge_flat[_ranges(starts, card)], np.repeat(owner, card)
    b = max(H.n, H.edge_offsets.size - 1).bit_length()
    keys = np.sort(((owner << b) | member)[member != us[owner]])
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    distinct = keys[first]
    return passed | (np.bincount(distinct >> b, minlength=us.size) >= k)


def _peel_level(H: Hypergraph, k: int, alive: np.ndarray, live: np.ndarray,
                work: dict[str, int]) -> np.ndarray:
    """d_k(v) at each node v of V_k, the nodes flagged in alive, by the
    degree peel of E_k, the hyperedges flagged in live; both masks are
    cleared as the peel goes, and the entries outside V_k are 0."""
    n, m = H.n, live.size
    deg = np.bincount(_rows(H.edge_offsets, H.edge_flat, np.flatnonzero(live))[0], minlength=n)
    dk = np.zeros(n, dtype=np.int64)
    d, left, touched = 0, int(alive.sum()), np.empty(0, dtype=np.int64)
    while left:
        at_d = deg[touched] <= d
        out = touched[at_d]
        if k > 1 and not at_d.all():
            checked = touched[~at_d]
            out = np.concatenate([out, checked[~_has_neighbors(H, checked, k, live, work)]])
        if not out.size:
            # nothing left at d: rise to the least live degree
            d = int(deg[alive].min())
            out = np.flatnonzero(alive & (deg == d))
        work["rounds"] += 1
        dk[out], alive[out] = d, False
        left -= out.size
        e = _rows(H.inc_offsets, H.inc_flat, out)[0]
        e = _distinct(e[live[e]], m)
        live[e] = False
        member = _rows(H.edge_offsets, H.edge_flat, e)[0]
        np.subtract.at(deg, member, 1)
        touched = _distinct(member[alive[member]], n)
    return dk

"""(neighborhood, degree)-core decomposition and the degree-core baseline.

Neighborhood core numbers c come first.  Level k then degree-peels V_k =
{v : c(v) >= k} on E_k, the hyperedges whose members all have c >= k.
Degree-core numbers are level 1 of the same peel, on all of H.

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
    # levels[k] maps surviving node -> d_k(v), for k in [1, kmax]
    levels: dict[int, dict[int, int]] = field(default_factory=dict)
    # the levels' work, summed: removal sub-rounds and exact neighbor counts
    counters: dict[str, int] = field(default_factory=dict)

    def core_members(self, k: int, d: int) -> set[int]:
        return {v for v, dv in self.levels.get(k, {}).items() if dv >= d}


def kd_decompose(H: Hypergraph) -> KDCoreResult:
    cores = local_core(H).core
    entries = sum(cores)
    if entries > LATTICE_GUARD:
        raise GuardError(f"lattice guard: {entries} (k,d) entries > {LATTICE_GUARD}")
    ranked = _Ranked(H, np.array(cores, dtype=np.int64))
    levels = {k: ranked.peel(k) for k in range(1, ranked.kmax + 1)}
    return KDCoreResult(ranked.kmax, levels, ranked.work)


def degree_core(H: Hypergraph) -> CoreAssignment:
    """Exact degree-based core numbers: level 1 of the (k,d)-decomposition,
    where every node with a live hyperedge has a residual neighbor, so the
    peel runs over all of H's nodes and hyperedges."""
    ranked = _Ranked(H, np.ones(H.n, dtype=np.int64))
    dvals = ranked.peel(1) if H.n else {}
    return CoreAssignment([dvals[v] for v in range(H.n)], ranked.work)


def _distinct(x: np.ndarray, size: int) -> np.ndarray:
    """x's distinct values (all below size): one position per value reads back its own mark."""
    mark = np.empty(size, dtype=np.int64)
    at = np.arange(x.size)
    mark[x] = at
    return x[mark[x] == at]


class _Ranked:
    """H in rank ids, nodes by descending core and hyperedges by descending
    least member core: V_k and E_k are the prefixes [0, node_ends[k]) and
    [0, edge_ends[k]).  `work` sums the levels' sub-rounds and recounts."""

    def __init__(self, H: Hypergraph, core: np.ndarray):
        n, m = H.n, len(H.edges)
        self.kmax = int(core.max(initial=0))
        low = np.minimum.reduceat(core[H.edge_flat], H.edge_starts) if m else core
        self.nodes, edges = np.argsort(-core, kind="stable"), np.argsort(-low, kind="stable")
        minus_k = -np.arange(self.kmax + 1)
        self.node_ends = np.searchsorted(-core[self.nodes], minus_k, side="right").tolist()
        self.edge_ends = np.searchsorted(-low[edges], minus_k, side="right").tolist()
        rank = np.argsort(self.nodes)
        # one int object per node id, shared by every level's dict
        self.ids = self.nodes.tolist()
        # members of each ranked hyperedge, and incidences sorted by (node, edge)
        self.card = card = np.diff(H.edge_starts, append=H.edge_flat.size)[edges]
        self.starts = np.concatenate(([0], np.cumsum(card)))
        self.flat = rank[H.edge_flat[_ranges(H.edge_starts[edges], card)]]
        self.b = b = max(n, m).bit_length()
        inc = np.sort((self.flat << b) | np.repeat(np.arange(m), card))
        self.inc_starts = np.searchsorted(inc >> b, np.arange(n + 1))
        self.inc = inc & ((1 << b) - 1)
        self.work = {"rounds": 0, "neighbor_recounts": 0}

    def incident(self, us: np.ndarray, deg0: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The live hyperedges of us, with the position in us they were read
        for; sorted by edge rank, a node's deg0[u] in E_k come first."""
        count = deg0[us]
        e = self.inc[_ranges(self.inc_starts[us], count)]
        owner = np.repeat(np.arange(us.size), count)
        keep = live[e]
        return e[keep], owner[keep]

    def members(self, e: np.ndarray) -> np.ndarray:
        return self.flat[_ranges(self.starts[e], self.card[e])]

    def has_neighbors(self, us: np.ndarray, k: int, deg0: np.ndarray, live: np.ndarray) -> np.ndarray:
        """Whether each node of us has k neighbors through live hyperedges;
        a node with a live one of more than k members is not counted."""
        e, owner = self.incident(us, deg0, live)
        passed = np.zeros(us.size, dtype=bool)
        passed[owner[self.card[e] > k]] = True
        keep = ~passed[owner]
        e, owner = e[keep], owner[keep]
        self.work["neighbor_recounts"] += us.size - int(passed.sum())
        member, owner = self.members(e), np.repeat(owner, self.card[e])
        keys = np.sort(((owner << self.b) | member)[member != us[owner]])
        distinct = keys[np.diff(keys, prepend=-1) != 0]
        return passed | (np.bincount(distinct >> self.b, minlength=us.size) >= k)

    def peel(self, k: int) -> dict[int, int]:
        """d_k(v) for every node v of V_k."""
        nk, mk = self.node_ends[k], self.edge_ends[k]
        deg0 = np.bincount(self.flat[: self.starts[mk]], minlength=nk)
        deg, alive, live = deg0.copy(), np.ones(nk, dtype=bool), np.ones(mk, dtype=bool)
        dk = np.empty(nk, dtype=np.int64)
        d, left, touched = 0, nk, np.empty(0, dtype=np.int64)
        while left:
            at_d = deg[touched] <= d
            out = touched[at_d]
            if k > 1 and not at_d.all():
                checked = touched[~at_d]
                out = np.concatenate([out, checked[~self.has_neighbors(checked, k, deg0, live)]])
            if not out.size:
                # nothing left at d: rise to the least live degree
                d = int(deg[alive].min())
                out = np.flatnonzero(alive & (deg == d))
            self.work["rounds"] += 1
            dk[out], alive[out] = d, False
            left -= out.size
            e = _distinct(self.incident(out, deg0, live)[0], mk)
            live[e] = False
            member = self.members(e)
            np.subtract.at(deg, member, 1)
            touched = _distinct(member[alive[member]], nk)
        return dict(zip(self.ids[:nk], dk.tolist()))


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

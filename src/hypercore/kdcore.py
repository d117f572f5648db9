"""(neighborhood, degree)-core decomposition and the degree-core baseline.

Neighborhood core numbers c come first.  Level k then degree-peels V_k =
{v : c(v) >= k} on E_k, the hyperedges whose members all have c >= k.
Degree-core numbers are level 1 of the same peel, on all of H.

A level peels level-synchronously, like Batagelj and Zaversnik's bucket
peel on graphs: at threshold d a sub-round removes every node of live
degree <= d and every touched node (a member of a hyperedge the last
sub-round killed) with fewer than k live neighbors, and gives each d_k = d;
when none qualifies, d rises to the least live degree.  That is the
definitional fixpoint, so C(k,d) = {v : d_k(v) >= d} has no tie order.

Consecutive levels peel in lockstep, a group at a time, over cells: (k, v)
for v in V_k and (k, e) for e in E_k.  Nodes are ranked by descending c and
hyperedges by descending least member core, ties by id, so V_k and E_k are
rank prefixes, and a cell's id is its level's base plus its rank.  One numpy
sub-round runs one sub-round of every level of the group still peeling,
each at its own d.  A group of one level (degree_core, clique_graph_core,
a level too large to share the budget) runs the same form at base 0.
Members and incidences are read through H's own CSR offsets, with their
ids taken as ranks once per decomposition.

No pair counts are kept: V_k is the neighborhood k-core of E_k, so only a
touched node can lack k neighbors.  One with a live hyperedge of more than
k members passes; every other one is a recount.  A cell keeps wdeg, the sum
of |e| - 1 over its live hyperedges, and excess(u), the sum of |e| - 1 over
all of u's hyperedges less |N(u)|, is fixed.  Then wdeg - excess <= |live
N(u)| <= wdeg: wdeg counts each of u's pair groups once per live holder,
the live count once per held group, and the overcount only shrinks as
hyperedges die.  So a recount passes at wdeg - excess >= k and fails at
wdeg < k; only the rest sort their live members.  At k = 1 there is no
recount: a node without a neighbor has degree 0, and the degree rule
removes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .model import GuardError, Hypergraph, _rows
from .peel import CoreAssignment
from .localcore import local_core

# Largest lattice (sum of c(v), one entry per level a node survives) that
# kd_decompose builds.  Each level is one int64 array, 8 bytes per entry and
# 112 per array (Python 3.11, numpy 2.4, x86-64 Linux): on one 1,000-member
# hyperedge (999,000 entries, local_core's cores given) tracemalloc counts
# 8.2 bytes per entry held after the call and 8.4 at its peak.
LATTICE_GUARD = 2**22

# Most cells, node and hyperedge cells together, that one group of levels
# peels in lockstep, in units of n + m; a group takes at least one level.
# A group's temporaries grow with its cells' incidences.  At half of n + m
# the peel's temporaries peak at 1.29 MB on the benchmark's mixed-wide, near
# local_core's 1.22 MB (tracemalloc; Python 3.11, numpy 2.4); a budget of
# 0.4 peaked at local_core's.
GROUP_CELLS = 0.5

# above every live degree: the least of a level with no live cell
_NONE = np.iinfo(np.int64).max


@dataclass
class KDCoreResult:
    kmax: int
    # each node's neighborhood core number c(v), int64
    core: np.ndarray
    # levels[k], for k in [1, kmax]: d_k(v) as int64 for the nodes of V_k =
    # np.flatnonzero(core >= k), in that ascending id order
    levels: dict[int, np.ndarray] = field(default_factory=dict)
    # each level's own work, summed: its removal sub-rounds (`rounds`) and
    # its touched nodes that hold no live hyperedge of more than k members
    # (`neighbor_recounts`), whether the degree-sum bound or a member sort
    # settled them
    counters: dict[str, int] = field(default_factory=dict)


def kd_decompose(H: Hypergraph) -> KDCoreResult:
    """Every (k,d)-core number of H: for each neighborhood level k in
    [1, kmax], d_k(v) at each node v of core >= k.  Core numbers come from
    local_core; a lattice of more than LATTICE_GUARD entries (the sum of
    the core numbers) is refused with a GuardError before any level is
    peeled."""
    core = np.array(local_core(H).core, dtype=np.int64)
    entries = int(core.sum())
    if entries > LATTICE_GUARD:
        raise GuardError(f"lattice guard: {entries} (k,d) entries > {LATTICE_GUARD}")
    kmax = int(core.max(initial=0))
    # each hyperedge's least member core: e is in E_k while it is at least k
    low = np.minimum.reduceat(core[H.edge_flat], H.edge_offsets[:-1])
    work = {"rounds": 0, "neighbor_recounts": 0}
    levels = dict(_peel(H, core, low, kmax, work))
    return KDCoreResult(kmax, core, levels, work)


def degree_core(H: Hypergraph) -> CoreAssignment:
    """Exact degree-based core numbers: level 1 of the (k,d)-decomposition,
    where every node with a live hyperedge has a residual neighbor, so the
    peel runs over all of H's nodes and hyperedges."""
    work = {"rounds": 0, "neighbor_recounts": 0}
    ones = np.ones(H.edge_offsets.size - 1, dtype=np.int64)
    ((_, dk),) = _peel(H, np.ones(H.n, dtype=np.int64), ones, 1, work)
    return CoreAssignment(dk.tolist(), work)


class _Prefixes(NamedTuple):
    """Ids by descending value, ties by id; each id's rank, its place in
    that order; and a flat array of these ids, read as ranks.  The ids of
    value >= k are order[:count[k]]."""

    order: np.ndarray
    rank: np.ndarray
    count: np.ndarray
    flat: np.ndarray


def _prefixes(values: np.ndarray, kmax: int, flat: np.ndarray) -> _Prefixes:
    order = (-values).argsort(kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    count = np.bincount(values, minlength=kmax + 2)[::-1].cumsum()[::-1]
    return _Prefixes(order, rank, count, rank[flat])


def _peel(H: Hypergraph, core: np.ndarray, low: np.ndarray, kmax: int,
          work: dict[str, int]) -> Iterator[tuple[int, np.ndarray]]:
    """(k, d_k) for k in [1, kmax]: d_k(v) at each node v of V_k = {core >=
    k}, in ascending id order, by the degree peel of E_k = {low >= k}."""
    # members as node ranks, incidences as hyperedge ranks
    nodes, edges = _prefixes(core, kmax, H.edge_flat), _prefixes(low, kmax, H.inc_flat)
    excess = _excess(H) if kmax > 1 else None
    cells = (nodes.count + edges.count).tolist()
    budget = GROUP_CELLS * (H.n + low.size)
    first = 1
    while first <= kmax:
        last, held = first, cells[first]
        while last < kmax and held + cells[last + 1] <= budget:
            last += 1
            held += cells[last]
        dk = _peel_group(H, first, last, nodes, edges, excess, work)
        at = 0
        for k, count in enumerate(nodes.count[first : last + 1].tolist(), first):
            # a copy, in id order, so no level keeps the group's dk alive
            yield k, dk[at : at + count][nodes.rank[core >= k]]
            at += count
        first = last + 1


def _excess(H: Hypergraph) -> np.ndarray:
    """Per node u, the sum of |e| - 1 over u's hyperedges less |N(u)|: the
    most by which a sum of |e| - 1 over live hyperedges overcounts u's live
    neighbors."""
    card = np.diff(H.edge_offsets)
    total = np.bincount(H.edge_flat, (card - 1).repeat(card), H.n).astype(np.int64)
    return total - np.diff(H.nbr_offsets)


def _has_neighbors(k: np.ndarray, wide: np.ndarray, most: np.ndarray, excess: np.ndarray,
                   count: Callable[[np.ndarray], np.ndarray], work: dict[str, int]) -> np.ndarray:
    """Whether each touched node i has k[i] live neighbors.  One with a live
    hyperedge of more than k[i] members (wide[i] > 0) has.  Every other is a
    recount: most[i] - excess[i] <= its live neighbors <= most[i], where
    most is its sum of |e| - 1 over live hyperedges, settles it, or else
    count(sel) gives the live neighbors of the recounts flagged in sel."""
    passed = wide > 0
    recount = ~passed
    work["neighbor_recounts"] += int(np.count_nonzero(recount))
    passed |= recount & (most - excess >= k)
    scan = ~passed & (most >= k)
    if np.count_nonzero(scan):
        passed[scan] = count(scan) >= k[scan]
    return passed


def _count_members(H: Hypergraph, flat: np.ndarray, e: np.ndarray, owner: np.ndarray,
                   own: np.ndarray) -> np.ndarray:
    """For each i, the distinct members other than own[i] of the hyperedges
    e[j] with owner[j] = i; flat is H.edge_flat or its ranks.  Packed
    (owner << b) | member keys are sorted, and the first of each run kept."""
    member, card = _rows(H.edge_offsets, flat, e)
    owner = owner.repeat(card)
    b = H.n.bit_length()
    keys = ((owner << b) | member)[member != own[owner]]
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.bincount(keys[first] >> b, minlength=own.size)


def _distinct(x: np.ndarray, size: int) -> np.ndarray:
    """x's distinct values (all below size): one position per value reads back its own mark."""
    mark = np.empty(size, dtype=np.int64)
    at = np.arange(x.size)
    mark[x] = at
    return x[mark[x] == at]


def _peel_group(H: Hypergraph, k0: int, k1: int, nodes: _Prefixes, edges: _Prefixes,
                excess: np.ndarray | None, work: dict[str, int]) -> np.ndarray:
    """d_k at the node cells of levels k0 .. k1, level after level, each in
    rank order; excess is read only above level 1."""
    levels = np.arange(k1 - k0 + 1)
    nk, mk = nodes.count[k0 : k1 + 1], edges.count[k0 : k1 + 1]
    nbase, ebase = np.zeros((2, levels.size + 1), dtype=np.int64)
    nk.cumsum(out=nbase[1:])
    mk.cumsum(out=ebase[1:])
    size, esize = int(nbase[-1]), int(ebase[-1])
    # each cell's level, and its id: the id of its rank, the cell less its base
    lev, elev = levels.repeat(nk), levels.repeat(mk)
    cnode = nodes.order[np.arange(size) - nbase[lev]]
    cedge = edges.order[np.arange(esize) - ebase[elev]]
    recount = k1 > 1  # level 1 alone needs no wdeg

    def edge_cells(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The hyperedge cells at node cells c's incidences, which of them
        are live, and how many incidences each cell of c has.  A node of V_k
        may hold hyperedges outside E_k: their ranks are mk[k] or more."""
        ec, count = _rows(H.inc_offsets, edges.flat, cnode[c])
        at = lev[c].repeat(count)
        ok = ec < mk[at]
        ec += ebase[at]
        ok[ok] = live[ec[ok]]
        return ec, ok, count

    def live_neighbors(c: np.ndarray) -> np.ndarray:
        """How many live neighbors each node cell of c has."""
        ec, ok, incidences = edge_cells(c)
        owner = np.arange(c.size).repeat(incidences)[ok]
        return _count_members(H, nodes.flat, cedge[ec[ok]], owner, nodes.rank[cnode[c]])

    # Each incidence of E_k0 is marked once, at the last level of the group
    # whose E_k holds it (for wide, the last at which it has more than k
    # members), and each level then adds in the one above: V_{k+1} is a
    # rank prefix of V_k.
    rank, card = _rows(H.edge_offsets, nodes.flat, edges.order[: mk[0]])
    top = (-mk).searchsorted(-np.arange(mk[0])) - 1
    cell = nbase[top].repeat(card) + rank
    # live degree less d: a cell is at d when it reaches 0
    slack = np.bincount(cell, minlength=size)
    marks = [slack]
    if recount:
        wdeg = np.bincount(cell, (card - 1).repeat(card), size).astype(np.int64)
        wide_top = np.minimum(top, card - 1 - k0).repeat(card)
        keep = wide_top >= 0
        wide = np.bincount(nbase[wide_top[keep]] + rank[keep], minlength=size)
        marks += [wdeg, wide]
    for j in levels[-2::-1]:
        a, b, c = nbase[j], nbase[j + 1], nk[j + 1]
        for x in marks:
            x[a : a + c] += x[b : b + c]

    dk = np.zeros(size, dtype=np.int64)
    alive, live = np.ones(size, dtype=bool), np.ones(esize, dtype=bool)
    d, left = np.zeros_like(nk), nk.copy()
    touched = np.empty(0, dtype=np.int64)
    while peeling := np.count_nonzero(left):
        work["rounds"] += int(peeling)
        at_d = slack[touched] <= 0
        out = touched[at_d]
        if recount and out.size < touched.size:
            checked = touched[~at_d]
            passed = _has_neighbors(k0 + lev[checked], wide[checked], wdeg[checked],
                                    excess[cnode[checked]], lambda sel: live_neighbors(checked[sel]),
                                    work)
            out = np.concatenate([out, checked[~passed]])
        at = lev[out]
        dk[out], alive[out] = d[at], False
        gone = np.bincount(at, minlength=levels.size)
        rising = gone < np.minimum(left, 1)
        left -= gone
        if np.count_nonzero(rising):
            # a level with none at d rises to its least live degree; every
            # other live cell is above its d, so the cells at 0 are theirs
            least = np.minimum.reduceat(np.where(alive, slack, _NONE), nbase[:-1])
            up = np.where(rising, least, 0)
            d += up
            slack -= up.repeat(nk)
            rise = (alive & (slack == 0)).nonzero()[0]
            at = lev[rise]
            dk[rise], alive[rise] = d[at], False
            left -= np.bincount(at, minlength=levels.size)
            out = np.concatenate([out, rise])
        ec, ok, _ = edge_cells(out)
        ec = _distinct(ec[ok], esize)
        live[ec] = False
        # the dead hyperedges' members, as cells of each hyperedge's level
        at = elev[ec]
        cell, card = _rows(H.edge_offsets, nodes.flat, cedge[ec])
        cell += nbase[at].repeat(card)
        fell = np.bincount(cell, minlength=size)
        slack -= fell
        if recount:
            wdeg -= np.bincount(cell, (card - 1).repeat(card), size).astype(np.int64)
            wide -= np.bincount(cell[(card > k0 + at).repeat(card)], minlength=size)
        touched = ((fell > 0) & alive).nonzero()[0]
    return dk

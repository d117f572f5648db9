"""Local fixpoint computation of neighborhood core numbers.

Each round recomputes a per-node h-index from neighbor estimates and then
applies a core-correction that lowers the estimate until an incident-edge
witness supplies enough neighbors at that level.  Without the correction the
plain h-index recurrence can converge above the true core number (exposed by
`naive_graph_h_index`).  Estimates decrease monotonically and the loop stops
on the first round in which no estimate changed.

Two engines compute the fixpoint; `local_core` picks one by a fixed rule:

    fused  (`_local_core_fused`) -- threads == 1 and all of use_opt2,
           use_opt3 and use_opt4 on (the default).  A Gauss-Seidel sweep that
           applies every optimization: per-hyperedge minimum member estimates
           kept live (opt2), the freshest estimates read in place (opt3), and
           nodes at their local lower bound skipped (opt4).
    Jacobi (`_local_core_jacobi`) -- every other setting.  One vectorized
           operator per round over round-start estimates, split into
           `threads` contiguous node blocks.

Both engines return the same core array as `peel`; only the round counts,
convergence history and work counters differ.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import Hypergraph, InputError
from .peel import CoreAssignment, _min_neighbor_count, _max_incident_card


@dataclass
class LocalCoreOptions:
    """Engine selection for `local_core`: the fused engine runs only with
    threads == 1 and every optimization flag on; turning any flag off or
    asking for more threads runs the Jacobi engine on `threads` threads."""

    use_opt2: bool = True
    use_opt3: bool = True
    use_opt4: bool = True
    threads: int = 1


@dataclass
class ConvergenceReport:
    rounds: int
    corrected_per_round: list[int] = field(default_factory=list)
    # last round in which any estimate actually changed (the final round only
    # verifies the fixpoint); set by both engines
    converged_round: int | None = None


def h_operator(values: Sequence[int]) -> int:
    """Largest y such that at least y of the values are >= y; 0 for empty input."""
    vals = sorted(values, reverse=True)
    h = 0
    for i, x in enumerate(vals):
        if x >= i + 1:
            h = i + 1
        else:
            break
    return h


def _lower_bounds(H: Hypergraph) -> list[int]:
    mn = _min_neighbor_count(H)
    return [max(_max_incident_card(H, v) - 1, mn) for v in range(H.n)]


def core_correction(H: Hypergraph, v: int, k: int, est: Sequence[int]) -> int:
    """Largest k' <= k at which v has an incident-edge witness: a set of
    incident edges whose members all carry estimate >= k' and which together
    supply >= k' neighbors of v."""
    inc = H.incident_edges(v)
    while k > 0:
        nplus: set[int] = set()
        for ei in inc:
            e = H.edges[ei]
            if all(est[u] >= k for u in e):
                nplus.update(e)
        nplus.discard(v)
        if len(nplus) >= k:
            return k
        k -= 1
    return 0


def _result(est: list[int], history: list[int], h_evals: int = 0,
            corr_iters: int = 0, edge_scans: int = 0) -> CoreAssignment:
    counters = {"h_operator_evals": h_evals, "correction_iterations": corr_iters,
                "lccsat_edge_scans": edge_scans}
    converged = len(history) - 1 if history else None
    return CoreAssignment(est, counters,
                          report=ConvergenceReport(len(history), history, converged))


def local_core(H: Hypergraph, opts: LocalCoreOptions | None = None) -> CoreAssignment:
    """Neighborhood core numbers via the corrected local fixpoint.

    The output array equals peel's for every option setting; only round
    counts and work counters differ between the two engines.
    """
    if opts is None:
        opts = LocalCoreOptions()
    if opts.threads < 1:
        raise InputError("threads must be >= 1")
    if H.n == 0:
        return _result([], [])
    if opts.threads == 1 and opts.use_opt2 and opts.use_opt3 and opts.use_opt4:
        return _local_core_fused(H)
    return _local_core_jacobi(H, opts.threads)


def _local_core_fused(H: Hypergraph) -> CoreAssignment:
    """Gauss-Seidel engine with every optimization: one fused pass per node.

    For a node with estimate ev the correction can never land below the best
    incident-edge witness bound kmax = max over incident edges, taken in
    decreasing order of their current index value, of min(index, running
    union size); and it always equals min(h, kmax) where h is the capped
    h-index of the neighbor estimates.  That collapses the h-sweep and the
    correction into a single computation.  Estimates are read fresh, the
    per-hyperedge minima are updated in place on every drop (exact because
    estimates only decrease), and nodes known stable -- every incident edge
    index at least ev and ev neighbors at estimate >= ev -- are skipped.
    The dirty set propagates through closed neighborhoods; the loop stops on
    the first change-free round.
    """
    n = H.n
    nbrs = H.neighbor_lists()
    edges = H.edges
    inc = [H.incident_edges(v) for v in range(n)]
    lb = _lower_bounds(H)
    est = [H.neighbor_count(v) for v in range(n)]
    emin = [min(est[u] for u in e) for e in edges]
    h_evals = corr_iters = edge_scans = 0
    history: list[int] = []
    dirty = list(range(n))

    while True:
        dirty.sort(key=est.__getitem__)
        changed: list[int] = []
        for v in dirty:
            ev = est[v]
            if ev <= lb[v]:
                continue
            stable = True
            for ei in inc[v]:
                if emin[ei] < ev:
                    stable = False
                    break
            if stable:
                acc = 0
                for u in nbrs[v]:
                    if est[u] >= ev:
                        acc += 1
                        if acc >= ev:
                            break
                if acc >= ev:
                    continue
            corr_iters += 1
            ents = sorted((emin[ei], ei) for ei in inc[v])
            best = 0
            union: set[int] = set()
            for i in range(len(ents) - 1, -1, -1):
                ee, ei = ents[i]
                if ee <= best:
                    break
                edge_scans += 1
                union.update(edges[ei])
                size = len(union) - 1
                m = ee if ee < size else size
                if m > best:
                    best = m
            h_evals += 1
            cap = ev if ev < best else best
            buckets = [0] * (cap + 1)
            for u in nbrs[v]:
                x = est[u]
                buckets[x if x < cap else cap] += 1
            acc = 0
            hv = 0
            for y in range(cap, 0, -1):
                acc += buckets[y]
                if acc >= y:
                    hv = y
                    break
            if hv < ev:
                est[v] = hv
                changed.append(v)
                for ei in inc[v]:
                    if hv < emin[ei]:
                        emin[ei] = hv
        history.append(len(changed))
        if not changed:
            break
        seen = bytearray(n)
        dirty = []
        for u in changed:
            if not seen[u]:
                seen[u] = 1
                dirty.append(u)
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = 1
                    dirty.append(w)

    return _result(est, history, h_evals, corr_iters, edge_scans)


# -- Jacobi local-core -----------------------------------------------------


def _segment_top_h(vals: np.ndarray, seg: np.ndarray, rank: np.ndarray,
                   starts: np.ndarray, hi: int) -> np.ndarray:
    """Per-segment h-index of `vals` (segment ids ascending, values <= hi).

    A single sort on the combined key seg * (hi + 1) + (hi - val) orders each
    segment's values descending while keeping segments contiguous, which is
    measurably faster than a two-key lexsort."""
    width = hi + 1
    key = np.sort(seg * width + (hi - vals))
    sv = seg * width + hi - key
    cand = np.where(sv >= rank, rank, 0)
    return np.maximum.reduceat(cand, starts)


def _pair_table(H: Hypergraph, edge_flat: np.ndarray, edge_starts: np.ndarray):
    """Static (node, neighbor) pair table for the one-shot update operator.

    For every ordered pair of distinct members (v, u) of every hyperedge,
    one row carries the hyperedge id.  Rows are sorted by (v, u) and grouped;
    each group corresponds to one neighbor u of one node v.  Returns
    (pair_edge, group_starts, seg_id, rank, node_starts, seg_nodes): the
    hyperedge column, the row index of each group start, per-group node
    segment ids and 1-based group rank within the segment, the group index
    of each node segment start, and the node of each segment."""
    n = H.n
    by_card: dict[int, list[int]] = {}
    for ei, e in enumerate(H.edges):
        by_card.setdefault(len(e), []).append(ei)
    v_parts, u_parts, e_parts = [], [], []
    for card, eis in by_card.items():
        if card < 2:
            continue
        idx = np.array(eis, dtype=np.int64)
        members = edge_flat[edge_starts[idx][:, None] + np.arange(card)]
        for i in range(card):
            for j in range(card):
                if i != j:
                    v_parts.append(members[:, i])
                    u_parts.append(members[:, j])
                    e_parts.append(idx)
    if not v_parts:
        return None
    key = np.concatenate(v_parts) * np.int64(n + 1) + np.concatenate(u_parts)
    pair_edge = np.concatenate(e_parts)
    order = np.argsort(key, kind="stable")
    key = key[order]
    pair_edge = pair_edge[order]
    group_starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    gv = key[group_starts] // (n + 1)
    new_node = np.concatenate(([True], gv[1:] != gv[:-1]))
    node_starts = np.flatnonzero(new_node)
    seg_nodes = gv[node_starts]
    seg_id = np.cumsum(new_node) - 1
    rank = np.arange(len(gv), dtype=np.int64) - node_starts[seg_id] + 1
    return pair_edge, group_starts, seg_id, rank, node_starts, seg_nodes


def _local_core_jacobi(H: Hypergraph, T: int) -> CoreAssignment:
    """Vectorized Jacobi engine over T contiguous node blocks.

    Built on a closed form of the per-round update: with
    best(v, u) = max over hyperedges containing both v and u of the
    hyperedge's minimum member estimate, the h-index-then-correction round
    for v equals the plain h-index of {best(v, u) : u neighbor of v}.
    (best(v, u) <= est(u) pointwise, so the h-index cannot exceed the
    neighbor h-index; and the candidate neighborhood at level k is exactly
    {u : best(v, u) >= k}, so the h-index is the largest self-consistent
    correction level.)  Each round recomputes that h-index for every block
    from the round-start hyperedge minima -- pure vectorized work that
    releases the GIL, so with T > 1 the blocks run on a pool of T threads --
    then the caller rebuilds the minima; the loop stops on the first
    change-free round."""
    n = H.n
    est = np.array([H.neighbor_count(v) for v in range(n)], dtype=np.int64)
    edge_flat = np.fromiter((u for e in H.edges for u in e), dtype=np.int64,
                            count=sum(len(e) for e in H.edges))
    edge_starts = np.zeros(len(H.edges), dtype=np.int64)
    np.cumsum([len(e) for e in H.edges[:-1]], out=edge_starts[1:])
    table = _pair_table(H, edge_flat, edge_starts)
    if table is None:  # no hyperedge with two members: every estimate is 0
        return _result(est.tolist(), [0])
    pair_edge, group_starts, seg_id, rank, node_starts, seg_nodes = table

    # contiguous node-segment ranges per block, balanced by pair rows
    total_pairs = len(pair_edge)
    n_groups = len(group_starts)
    n_segs = len(seg_nodes)
    seg_first_pair = group_starts[node_starts]
    cuts = [int(np.searchsorted(seg_first_pair, t * total_pairs // T))
            for t in range(T + 1)]
    cuts[-1] = n_segs
    blocks = []
    for a, b in zip(cuts, cuts[1:]):
        if a < b:
            ga = node_starts[a]
            gb = node_starts[b] if b < n_segs else n_groups
            pa = group_starts[ga]
            pb = group_starts[gb] if gb < n_groups else total_pairs
            blocks.append((pair_edge[pa:pb], group_starts[ga:gb] - pa, seg_id[ga:gb] - a,
                           rank[ga:gb], node_starts[a:b] - ga, seg_nodes[a:b]))

    emin = np.minimum.reduceat(est[edge_flat], edge_starts)

    def step(block) -> int:
        """One round for one block; returns the number of estimates lowered."""
        edges, groups, seg, seg_rank, starts, nodes = block
        best = np.maximum.reduceat(emin[edges], groups)
        h = _segment_top_h(best, seg, seg_rank, starts, n)
        old = est[nodes]
        np.minimum(h, old, out=h)
        est[nodes] = h
        return int(np.count_nonzero(h < old))

    history: list[int] = []
    with ThreadPoolExecutor(T) if T > 1 else nullcontext() as pool:
        run = pool.map if pool is not None else map
        while True:
            changes = sum(run(step, blocks))
            history.append(changes)
            if not changes:
                break
            emin[:] = np.minimum.reduceat(est[edge_flat], edge_starts)

    return _result(est.tolist(), history, h_evals=len(history) * n_segs)


# -- uncorrected baseline and convergence hierarchy ------------------------


def naive_graph_h_index(H: Hypergraph) -> CoreAssignment:
    """Fixpoint of the plain graph h-index recurrence, without correction.

    On hypergraphs this may converge strictly above the true core numbers;
    it is kept as a comparison baseline."""
    n = H.n
    nbrs = H.neighbor_lists()
    cur = [H.neighbor_count(v) for v in range(n)]
    rounds = 0
    while True:
        rounds += 1
        new = [h_operator([cur[u] for u in nbrs[v]]) for v in range(n)]
        if new == cur:
            break
        cur = new
    return CoreAssignment(cur, {"rounds": rounds})


def neighborhood_hierarchy(H: Hypergraph) -> list[int]:
    """Stratum index per node: stratum 0 holds the minimum-neighbor nodes,
    each later stratum the minimum-neighbor nodes of the strong residual."""
    n = H.n
    idx = [-1] * n
    alive = [True] * n
    remaining = n
    level = 0
    while remaining:
        cnts = {v: len(H.residual_neighbors(v, alive)) for v in range(n) if alive[v]}
        mn = min(cnts.values())
        stratum = [v for v, c in cnts.items() if c == mn]
        for v in stratum:
            idx[v] = level
            alive[v] = False
        remaining -= len(stratum)
        level += 1
    return idx

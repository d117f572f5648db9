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


def _pair_table(offsets: np.ndarray):
    """Node segments of the model's pair table for the one-shot update
    operator, from the neighbor offsets `H.nbr_offsets`.  Each pair group is
    one neighbor u of one node v, and the groups of one v form that node's
    segment.  Returns (seg_id, rank, seg_bounds, seg_nodes): per-group
    segment ids and 1-based group rank within the segment, the group index
    of each segment start followed by the group count, and the node of each
    segment."""
    counts = np.diff(offsets)
    seg_nodes = np.flatnonzero(counts)
    seg_bounds = offsets[np.append(seg_nodes, len(counts))]
    seg_id = np.repeat(np.arange(len(seg_nodes)), counts[seg_nodes])
    rank = np.arange(len(seg_id)) - seg_bounds[seg_id] + 1
    return seg_id, rank, seg_bounds, seg_nodes


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
    offsets = np.array(H.nbr_offsets, dtype=np.int64)
    est = np.diff(offsets)
    pair_edge = H.pair_edge
    if not len(pair_edge):  # no hyperedge with two members: every estimate is 0
        return _result(est.tolist(), [0])
    seg_id, rank, seg_bounds, seg_nodes = _pair_table(offsets)

    # contiguous node-segment ranges per block, balanced by pair rows
    row_bounds = np.append(H.pair_starts, len(pair_edge))
    cuts = np.searchsorted(row_bounds[seg_bounds], np.arange(T + 1) * len(pair_edge) // T)
    cuts[-1] = len(seg_nodes)
    blocks = []
    for a, b in zip(cuts.tolist(), cuts[1:].tolist()):
        if a < b:
            ga, gb = seg_bounds[a], seg_bounds[b]
            pa, pb = row_bounds[ga], row_bounds[gb]
            blocks.append((pair_edge[pa:pb], row_bounds[ga:gb] - pa, seg_id[ga:gb] - a,
                           rank[ga:gb], seg_bounds[a:b] - ga, seg_nodes[a:b]))

    emin = np.minimum.reduceat(est[H.edge_flat], H.edge_starts)

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
            emin[:] = np.minimum.reduceat(est[H.edge_flat], H.edge_starts)

    return _result(est.tolist(), history, h_evals=len(history) * len(seg_nodes))


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

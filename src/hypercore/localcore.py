"""Local fixpoint computation of neighborhood core numbers.

Each round recomputes a per-node h-index from neighbor estimates and then
applies a core-correction that lowers the estimate until an incident-edge
witness supplies enough neighbors at that level.  Without the correction the
plain h-index recurrence can converge above the true core number (exposed by
`naive_graph_h_index`).  Estimates decrease monotonically and the loop stops
on the first round in which no estimate changed.

One engine computes the fixpoint: `_local_core_jacobi`, a vectorized Jacobi
operator applied once per round to the round-start estimates of every node,
split into `threads` contiguous node blocks.  It returns the same core array
as `peel`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import Hypergraph, InputError
from .peel import CoreAssignment

# Most threads `LocalCoreOptions` accepts.  Each thread runs node blocks of one
# round, so counts far above the core count only add threads; an unchecked
# count could start one thread per node or fail allocating the block split.
MAX_THREADS = 64


@dataclass(frozen=True)
class LocalCoreOptions:
    """Settings for `local_core`.  With threads == 1 each round runs in the
    calling thread; with more, its node blocks run on a pool of `threads`
    threads (at most MAX_THREADS); other counts are refused here."""

    threads: int = 1

    def __post_init__(self):
        if not 1 <= self.threads <= MAX_THREADS:
            raise InputError(f"threads must be between 1 and {MAX_THREADS}, got {self.threads}")


@dataclass
class ConvergenceReport:
    rounds: int
    corrected_per_round: list[int] = field(default_factory=list)


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


def core_correction(H: Hypergraph, v: int, k: int, est: Sequence[int]) -> int:
    """Largest k' <= k at which v has an incident-edge witness: a set of
    incident edges whose members all carry estimate >= k' and which together
    supply >= k' neighbors of v."""
    while k > 0 and len(H.residual_neighbors(v, [x >= k for x in est])) < k:
        k -= 1
    return k


def _result(est: list[int], history: list[int], h_evals: int = 0) -> CoreAssignment:
    return CoreAssignment(est, {"h_operator_evals": h_evals},
                          report=ConvergenceReport(len(history), history))


def local_core(H: Hypergraph, opts: LocalCoreOptions | None = None) -> CoreAssignment:
    """Neighborhood core numbers via the corrected local fixpoint.

    The output array equals peel's; the thread count changes neither it nor
    the round count.
    """
    if H.n == 0:
        return _result([], [])
    return _local_core_jacobi(H, (opts or LocalCoreOptions()).threads)


# -- Jacobi local-core -----------------------------------------------------


def _segment_top_h(vals: np.ndarray, base: np.ndarray, rank: np.ndarray,
                   starts: np.ndarray) -> np.ndarray:
    """Per-segment h-index of `vals`, given base = seg * (hi + 1) + hi for
    ascending segment ids seg and values <= hi.

    A single sort on the combined key base - val orders each segment's values
    descending while keeping segments contiguous, which is measurably faster
    than a two-key lexsort.  Of values sorted descending, the h-index is the
    largest min(value, rank)."""
    key = base - vals
    key.sort()
    np.subtract(base, key, out=key)
    np.minimum(key, rank, out=key)
    return np.maximum.reduceat(key, starts)


def _pair_table(offsets: np.ndarray):
    """Node segments of the model's pair table for the one-shot update
    operator, from the neighbor offsets `H.nbr_offsets`.  Each pair group is
    one neighbor u of one node v, and the groups of node v form segment v
    (every node has a neighbor).  Returns (seg_id, rank): per-group segment
    ids and 1-based group rank within the segment."""
    seg_id = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    rank = np.arange(1, len(seg_id) + 1)
    rank -= offsets[seg_id]
    return seg_id, rank


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
    seg_id, rank = _pair_table(offsets)

    # contiguous node ranges per block, balanced by pair rows
    row_bounds = np.append(H.pair_starts, len(pair_edge))
    cuts = np.searchsorted(row_bounds[offsets], np.arange(T + 1) * len(pair_edge) // T)
    cuts[-1] = n
    blocks = []
    for a, b in zip(cuts.tolist(), cuts[1:].tolist()):
        if a < b:
            ga, gb = offsets[a], offsets[b]
            pa, pb = row_bounds[ga], row_bounds[gb]
            base = seg_id[ga:gb] - a  # the sort key base of _segment_top_h
            base *= n + 1
            base += n
            blocks.append((pair_edge[pa:pb], row_bounds[ga:gb] - pa, base,
                           rank[ga:gb], offsets[a:b] - ga, np.arange(a, b)))
    # the blocks hold what the rounds read; free the whole-table arrays first
    del seg_id, rank, row_bounds

    emin = np.minimum.reduceat(est[H.edge_flat], H.edge_starts)

    def step(block) -> int:
        """One round for one block; returns the number of estimates lowered."""
        edges, groups, base, seg_rank, starts, nodes = block
        best = np.maximum.reduceat(emin[edges], groups)
        h = _segment_top_h(best, base, seg_rank, starts)
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

    return _result(est.tolist(), history, h_evals=len(history) * n)


# -- uncorrected baseline and convergence hierarchy ------------------------


def naive_graph_h_index(H: Hypergraph) -> CoreAssignment:
    """Fixpoint of the plain graph h-index recurrence, without correction.

    On hypergraphs this may converge strictly above the true core numbers;
    it is kept as a comparison baseline."""
    n = H.n
    nbrs = [H.neighbors(v) for v in range(n)]
    cur = [len(nbr) for nbr in nbrs]
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

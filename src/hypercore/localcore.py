"""Local fixpoint computation of neighborhood core numbers.

Each round recomputes a per-node h-index from neighbor estimates and then
applies a core-correction that lowers the estimate until an incident-edge
witness supplies enough neighbors at that level.  Without the correction the
plain h-index recurrence can converge above the true core number; on the
clique expansion the correction never binds, so there this engine runs that
recurrence (`gen.naive_graph_h_index`).  Estimates decrease monotonically and
the loop stops on the first round in which no estimate changed.

`local_core` applies a vectorized Jacobi operator once per round to the
round-start estimates of every node, split into `threads` contiguous node
blocks.  It returns the same core array as `peel`.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

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
        try:
            ok = 1 <= operator.index(self.threads) <= MAX_THREADS
        except TypeError:  # not an integer
            ok = False
        if not ok:
            raise InputError(f"threads must be between 1 and {MAX_THREADS}, got {self.threads}")


@dataclass
class ConvergenceReport:
    """`rounds` counts the rounds, the final change-free one included, and
    `corrected_per_round[i]` the estimates that round i lowered."""

    rounds: int
    corrected_per_round: list[int] = field(default_factory=list)


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


def local_core(H: Hypergraph, opts: LocalCoreOptions | None = None) -> CoreAssignment:
    """Neighborhood core numbers via the corrected local fixpoint.

    Built on a closed form of the per-round update: with
    best(v, u) = max over hyperedges containing both v and u of the
    hyperedge's minimum member estimate, the h-index-then-correction round
    for v equals the plain h-index of {best(v, u) : u neighbor of v}.
    (best(v, u) <= est(u) pointwise, so the h-index cannot exceed the
    neighbor h-index; and the candidate neighborhood at level k is exactly
    {u : best(v, u) >= k}, so the h-index is the largest self-consistent
    correction level.)  Each round recomputes that h-index for every node
    block from the round-start hyperedge minima -- pure vectorized work that
    releases the GIL, so with T = opts.threads > 1 the blocks run on a pool
    of T threads -- then rebuilds the minima; the loop stops on the first
    change-free round.  The output array equals peel's; the thread count
    changes neither it nor the round count.
    """
    n = H.n
    if n == 0:
        return CoreAssignment([], {"h_operator_evals": 0}, report=ConvergenceReport(0, []))
    T = (opts or LocalCoreOptions()).threads
    offsets = H.nbr_offsets
    est = np.diff(offsets)
    pair_edge = H.pair_edge
    # each pair group is one neighbor u of one node v, and v's groups form
    # segment v (every node has a neighbor), ranked from 1 within it
    seg_id = np.repeat(np.arange(n), est)
    rank = np.arange(1, len(seg_id) + 1)
    rank -= offsets[seg_id]

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

    emin = np.minimum.reduceat(est[H.edge_flat], H.edge_offsets[:-1])

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
            emin[:] = np.minimum.reduceat(est[H.edge_flat], H.edge_offsets[:-1])

    return CoreAssignment(est.tolist(), {"h_operator_evals": len(history) * n},
                          report=ConvergenceReport(len(history), history))

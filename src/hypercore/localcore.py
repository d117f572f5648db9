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
blocks.  A round reads one weighted entry per incidence and a few per
shared pair group, never the pair rows: the h-index is taken over weighted
entries whose count at each level is the neighbor count at that level (see
`local_core`).  It returns the same core array as `peel`.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .model import Hypergraph, InputError, shared_groups
from .peel import CoreAssignment

# Most threads `LocalCoreOptions` accepts.  A round runs that many node
# blocks, on no more threads than CPUs, so counts far above the core count
# only add blocks; an unchecked count could fail allocating the block split.
MAX_THREADS = 64


@dataclass(frozen=True)
class LocalCoreOptions:
    """Settings for `local_core`.  Each round runs as `threads` node blocks
    (at most MAX_THREADS; other counts are refused here).  With threads == 1
    it runs in the calling thread; with more, the blocks run on a pool of
    `threads` threads, but of no more threads than `os.cpu_count()`."""

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


# A round sorts one int64 key per entry: ((node * (hi + 1) + hi - value)
# << CODE_BITS) | code, with hi the largest starting estimate and code the
# rank of the entry's weight among the distinct weights.  A value is in
# [0, hi], hi < n and n <= PAIR_ROW_GUARD = 2**25 (every node is in a pair
# row), so node * (hi + 1) + hi < n**2 <= 2**50.  The weights are -1, +1 and
# |e| - 1 for each distinct cardinality; 465 distinct cardinalities hold at
# least sum(c(c - 1) for c = 2..466) > 2**25 rows, so there are at most 466
# weights, a 9-bit code, and every key is below 2**59.
CODE_BITS = 9
CODE_MASK = (1 << CODE_BITS) - 1


def local_core(H: Hypergraph, opts: LocalCoreOptions | None = None) -> CoreAssignment:
    """Neighborhood core numbers via the corrected local fixpoint.

    Built on a closed form of the per-round update: with
    best(v, u) = max over hyperedges containing both v and u of the
    hyperedge's minimum member estimate emin, the h-index-then-correction
    round for v equals the plain h-index of {best(v, u) : u neighbor of v}.
    (best(v, u) <= est(u) pointwise, so the h-index cannot exceed the
    neighbor h-index; and the candidate neighborhood at level k is exactly
    {u : best(v, u) >= k}, so the h-index is the largest self-consistent
    correction level.)

    That h-index is taken over weighted entries, not pair rows.  Incidence
    (v, e) gives one entry of value emin(e) and weight |e| - 1; a pair group
    of v held by d > 1 hyperedges adds one entry of weight -1 at each
    holder's emin and one of weight +1 at their maximum.  The weights of v's
    entries of value >= k then sum to #{u : best(v, u) >= k}.  One sort of
    packed int64 keys (node, value descending, weight with -1 first among
    equal values; below 2**59 within the pair-row guard, see CODE_BITS)
    orders every node's entries, and a running sum of the weights, less
    nbr_offsets[v] (the sum of all lower nodes' weights, one per neighbor),
    is that count at each entry.  The first entries of a value never count
    more than all of them do, so v's h-index is the largest
    min(value, count) over its entries.

    Each round recomputes it for every node block from the round-start
    hyperedge minima -- vectorized work, most of it outside the GIL, so
    with T = opts.threads > 1 the blocks, contiguous node ranges balanced
    by entries, run on a pool of min(T, CPUs) threads -- then rebuilds the
    minima; the loop stops on the first change-free round.  The output
    array equals peel's; the thread count changes neither it nor the round
    count.
    """
    n = H.n
    if n == 0:
        return CoreAssignment([], {"h_operator_evals": 0}, report=ConvergenceReport(0, []))
    T = (opts or LocalCoreOptions()).threads
    offsets = H.nbr_offsets
    est = np.diff(offsets)
    hi = int(est.max())
    m = H.edge_offsets.size - 1
    gnode, holder, reps = shared_groups(H)
    g = gnode.size
    # what the entries read, shifted to the key's value field: each
    # hyperedge's emin, then each shared group's largest holder emin
    ext = np.empty(m + g, dtype=np.int64)
    emin, gmax = ext[:m], ext[m:]
    gstarts = np.cumsum(reps) - reps

    # incidence (v, e) reads emin(e) at weight |e| - 1; a shared group of v
    # reads each holder's emin at weight -1 and their largest at +1.  The
    # entries are stably sorted by node, so a node range is an entry range,
    # and a round's sort keeps each node's entries in that range.
    node = np.concatenate((np.repeat(np.arange(n), np.diff(H.inc_offsets)),
                           np.repeat(gnode, reps), gnode))
    up = np.concatenate((np.diff(H.edge_offsets).take(H.inc_flat),  # weight + 1
                         np.zeros(holder.size, dtype=np.int64), np.full(g, 2)))
    order = np.argsort(node, kind="stable")
    node = node.take(order)
    src = np.concatenate((H.inc_flat, holder, np.arange(m, m + g))).take(order)
    seen = np.bincount(up)
    # each code's weight, ascending, so -1 is code 0; shifted to the key's
    # value field, as the round compares counts with shifted values
    table = (np.flatnonzero(seen) - 1) << CODE_BITS
    code = (np.cumsum(seen > 0) - 1).take(up.take(order))
    del up, order, seen
    # pre - (value << CODE_BITS) is an entry's key, and lift - key is
    # ((value + nbr_offsets[v]) << CODE_BITS) + CODE_MASK - code, below 2**60
    lift = node * (hi + 1) + hi
    pre = (lift << CODE_BITS) | code
    lift += offsets.take(node)
    lift <<= CODE_BITS
    lift |= CODE_MASK
    del code

    # contiguous node ranges per block, balanced by entries
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(node, minlength=n), out=bounds[1:])
    cuts = np.searchsorted(bounds, np.arange(T + 1) * node.size // T)
    cuts[-1] = n
    blocks = []
    for a, b in zip(cuts.tolist(), cuts[1:].tolist()):
        if a < b:
            ea, eb = bounds[a], bounds[b]
            blocks.append((src[ea:eb], pre[ea:eb], lift[ea:eb] - (offsets[a] << CODE_BITS),
                           bounds[a:b] - ea, offsets[a:b] - offsets[a], a, b))
    del node, src, pre, lift, bounds

    def minima() -> None:
        """Each hyperedge's least member estimate and each shared group's
        largest holder minimum, shifted to the key's value field."""
        np.minimum.reduceat(est.take(H.edge_flat), H.edge_offsets[:-1], out=emin)
        np.left_shift(emin, CODE_BITS, out=emin)
        np.maximum.reduceat(emin.take(holder), gstarts, out=gmax)

    def step(block) -> int:
        """One round for one block; returns the number of estimates lowered."""
        src, pre, lift, starts, base, a, b = block
        key = ext.take(src)
        np.subtract(pre, key, out=key)
        key.sort()
        count = table.take(key & CODE_MASK)
        np.cumsum(count, out=count)
        # lift - key is ((value + c0) << CODE_BITS) + CODE_MASK - code, where
        # c0 (base) is the block's running count before v's entries; against
        # the shifted count, the largest minimum less c0 is v's h-index
        np.subtract(lift, key, out=key)
        np.minimum(key, count, out=key)
        h = np.maximum.reduceat(key, starts)
        h >>= CODE_BITS
        h -= base
        old = est[a:b]
        changes = int(np.count_nonzero(h < old))
        np.minimum(old, h, out=old)
        return changes

    minima()
    history: list[int] = []
    # a thread beyond the CPU count only adds switching, and each round
    # waits for its slowest block: on 2 CPUs, one of them held by another
    # process, 4 blocks took 0.99-1.07 times one thread's time on 4 threads
    # and 0.86-1.01 times on 2
    workers = min(T, os.cpu_count() or 1)
    with ThreadPoolExecutor(workers) if T > 1 else nullcontext() as pool:
        run = pool.map if pool is not None else map
        while True:
            changes = sum(run(step, blocks))
            history.append(changes)
            if not changes:
                break
            minima()

    return CoreAssignment(est.tolist(), {"h_operator_evals": len(history) * n},
                          report=ConvergenceReport(len(history), history))

"""Synthetic hypergraph generation and the two pairwise baselines: existing
engines run on the clique expansion."""

from __future__ import annotations

import math
import random
import sys
from itertools import accumulate

import numpy as np

from . import model
from .model import GuardError, Hypergraph, InputError, build
from .kdcore import degree_core
from .localcore import local_core
from .peel import CoreAssignment


def seeded_random(seed: int) -> random.Random:
    """The random stream of an int seed.  `random.Random` drops the sign of
    an int seed, so a negative seed is seeded by its string form instead; a
    seed >= 0 keeps the stream of `random.Random(seed)`."""
    return random.Random(seed if seed >= 0 else str(seed))


def random_hypergraph(
    n: int, m: int, card_min: int, card_max: int, seed: int
) -> Hypergraph:
    """m distinct edges with uniform cardinality in [card_min, card_max] and
    uniformly sampled members; duplicates are rejection-resampled.

    Deterministic per seed (see `seeded_random`).  Nodes that end up in no
    edge are stripped at build, so the result may have fewer than n nodes.
    """
    if not (2 <= card_min <= card_max <= n):
        raise InputError(f"need 2 <= card_min <= card_max <= n, got ({card_min},{card_max},{n})")
    if m < 1:
        raise InputError("m must be >= 1")
    if n > sys.maxsize:  # random.sample cannot draw from a longer range
        raise InputError(f"n must be <= {sys.maxsize}, got {n}")
    # stop at m: the whole sum for a wide cardinality range takes minutes
    for distinct in accumulate(math.comb(n, c) for c in range(card_min, card_max + 1)):
        if distinct >= m:
            break
    else:
        raise InputError(f"m={m} exceeds the {distinct} distinct edges possible")
    # every edge has at least card_min members: refuse before any draw
    floor = card_min * (card_min - 1)
    if m * floor > model.PAIR_ROW_GUARD:
        raise _pair_row_error(m * floor)

    rng = seeded_random(seed)
    seen: set[tuple[int, ...]] = set()
    edges: list[list[str]] = []
    kept_rows, kept_cards = 0, set()
    while len(edges) < m:
        card = rng.randint(card_min, card_max)
        # the edges still to draw after this one have at least card_min members
        rows = kept_rows + card * (card - 1) + (m - len(edges) - 1) * floor
        # only a kept cardinality can repeat a kept edge and be redrawn; its
        # rows already fit in the guard, so its members are cheap to draw
        if rows > model.PAIR_ROW_GUARD and card not in kept_cards:
            raise _pair_row_error(rows)
        e = tuple(sorted(rng.sample(range(n), card)))
        if e in seen:
            continue
        if rows > model.PAIR_ROW_GUARD:
            raise _pair_row_error(rows)
        seen.add(e)
        kept_rows += card * (card - 1)
        kept_cards.add(card)
        edges.append([str(v) for v in e])
    return build(edges)[0]


def _pair_row_error(rows: int) -> GuardError:
    return GuardError(f"pair-table guard: at least {rows} pair rows > {model.PAIR_ROW_GUARD}")


def clique_expansion(H: Hypergraph) -> Hypergraph:
    """Replace each hyperedge by a clique on its members: the 2-uniform
    hypergraph of H's co-occurring node pairs, on H's labels."""
    v = np.repeat(np.arange(H.n), np.diff(H.nbr_offsets))
    pairs = np.stack((v, H.nbr_flat), axis=1)[v < H.nbr_flat]
    return Hypergraph(pairs.ravel(), np.full(len(pairs), 2), H.labels)


def clique_graph_core(H: Hypergraph) -> CoreAssignment:
    """Classical graph core numbers of the clique expansion (comparison baseline).

    With two-member edges strong induction is ordinary induction and a
    node's neighbor count is its degree, so `degree_core` runs the graph core
    peel, decrementing degrees instead of rebuilding neighbor sets."""
    return degree_core(clique_expansion(H))


def naive_graph_h_index(H: Hypergraph) -> CoreAssignment:
    """Fixpoint of the plain graph h-index recurrence from degrees, and its
    round count (comparison baseline).  On two-member edges local-core's
    correction never binds, and from degrees the recurrence never rises, so
    `local_core` on the clique expansion runs it round for round.  It reaches
    graph coreness (Lü et al. 2016), which may lie above H's neighborhood cores."""
    res = local_core(clique_expansion(H))
    return CoreAssignment(res.core, {"rounds": res.report.rounds})

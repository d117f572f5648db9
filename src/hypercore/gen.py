"""Synthetic hypergraph generation, the definitional core oracle, and the
clique-expansion baseline decomposition."""

from __future__ import annotations

import math
import random

import networkx as nx

from .model import BuildReport, GuardError, Hypergraph, InputError, SingletonPolicy, build
from .kdcore import kd_fixpoint_oracle
from .peel import CoreAssignment

ORACLE_NODE_GUARD = 200


def random_hypergraph(
    n: int, m: int, card_min: int, card_max: int, seed: int
) -> Hypergraph:
    """m distinct edges with uniform cardinality in [card_min, card_max] and
    uniformly sampled members; duplicates are rejection-resampled.

    Deterministic per seed.  Nodes that end up in no edge are stripped at
    build, so the result may have fewer than n nodes.
    """
    if not (2 <= card_min <= card_max <= n):
        raise InputError(f"need 2 <= card_min <= card_max <= n, got ({card_min},{card_max},{n})")
    if m < 1:
        raise InputError("m must be >= 1")
    distinct = sum(math.comb(n, c) for c in range(card_min, card_max + 1))
    if m > distinct:
        raise InputError(f"m={m} exceeds the {distinct} distinct edges possible")

    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    edges: list[list[str]] = []
    while len(edges) < m:
        card = rng.randint(card_min, card_max)
        e = tuple(sorted(rng.sample(range(n), card)))
        if e in seen:
            continue
        seen.add(e)
        edges.append([str(v) for v in e])
    H, _ = build(edges, SingletonPolicy.REJECT)
    return H


def naive_core_oracle(H: Hypergraph) -> CoreAssignment:
    """Ground-truth neighborhood core numbers straight from the definition.

    For each k, repeatedly delete nodes with fewer than k neighbors in the
    strong residual until a fixpoint; c(v) is the largest k at which v
    survives.  Residuals are recomputed from scratch for clarity.
    """
    if H.n > ORACLE_NODE_GUARD:
        raise GuardError(f"oracle guard: {H.n} nodes > {ORACLE_NODE_GUARD}")
    core = [0] * H.n
    k = 1
    while True:
        survivors = kd_fixpoint_oracle(H, k, 0)
        if not survivors:
            break
        for v in survivors:
            core[v] = k
        k += 1
    return CoreAssignment(core=core, counters={})


def oracle_k_core_sets(H: Hypergraph) -> list[set[int]]:
    """Per-k survivor sets [1-core, 2-core, ...] from the definitional oracle."""
    sets = []
    k = 1
    while True:
        s = kd_fixpoint_oracle(H, k, 0)
        if not s:
            return sets
        sets.append(s)
        k += 1


def clique_expansion(H: Hypergraph) -> nx.Graph:
    """Replace each hyperedge by a clique on its members."""
    G = nx.Graph()
    G.add_nodes_from(range(H.n))
    G.add_edges_from((v, u) for v in range(H.n) for u in H.neighbors(v) if v < u)
    return G


def clique_graph_core(H: Hypergraph) -> CoreAssignment:
    """Classical graph core numbers of the clique expansion (comparison baseline)."""
    G = clique_expansion(H)
    cn = nx.core_number(G)
    return CoreAssignment(core=[cn[v] for v in range(H.n)], counters={})

"""Seeded input generator for the benchmark workloads.

It is independent of ``hypercore.gen`` on purpose: a change to the library's
generator must not change what the benchmark measures.  Every input is a list
of hyperedges over integer node ids; ``to_hg`` renders it in the ``.hg`` text
format the CLI reads.

A workload's structure is drawn once from a fixed seed; ``relabel`` then
draws the run's input from the run seed: a random node labelling, edge order
and member order of that same hypergraph.  With a fresh structure per seed,
local-core round counts (and with them the ``--threads 2`` time) varied by a
quarter between seeds, more than a timing bound can absorb.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations


def uniform_edges(rng: random.Random, n: int, m: int, card_min: int, card_max: int,
                  wide: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """m distinct hyperedges with uniform cardinality in [card_min, card_max],
    followed by one hyperedge per entry of ``wide`` with that many members."""
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    while len(edges) < m:
        e = tuple(sorted(rng.sample(range(n), rng.randint(card_min, card_max))))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    for size in wide:
        edges.append(tuple(sorted(rng.sample(range(n), size))))
    return edges


def pair_disjoint_edges(rng: random.Random, n: int, m: int, card_min: int,
                        card_max: int) -> list[tuple[int, ...]]:
    """m hyperedges no two of which share a node pair (d_pair = 1), by rejection."""
    used: set[tuple[int, int]] = set()
    edges: list[tuple[int, ...]] = []
    while len(edges) < m:
        e = tuple(sorted(rng.sample(range(n), rng.randint(card_min, card_max))))
        pairs = list(combinations(e, 2))
        if any(p in used for p in pairs):
            continue
        used.update(pairs)
        edges.append(e)
    return edges


def relabel(rng: random.Random, edges: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The same hypergraph under a random node labelling, edge order and
    member order."""
    perm = list(range(1 + max(v for e in edges for v in e)))
    rng.shuffle(perm)
    out = [tuple(rng.sample([perm[v] for v in e], len(e))) for e in edges]
    rng.shuffle(out)
    return out


def to_hg(edges: list[tuple[int, ...]]) -> str:
    return "".join(" ".join(f"n{v}" for v in e) + "\n" for e in edges)


def shape(edges: list[tuple[int, ...]]) -> dict[str, int]:
    """Shape counts of the hypergraph the CLI builds from these edges
    (isolated ids never appear in an edge, so they are not counted)."""
    pairs: Counter[tuple[int, int]] = Counter()
    for e in edges:
        pairs.update(combinations(sorted(e), 2))
    return {
        "nodes": len({v for e in edges for v in e}),
        "edges": len(edges),
        "incidences": sum(len(e) for e in edges),
        "pair_rows": sum(len(e) * (len(e) - 1) for e in edges),
        "d_pair": max(pairs.values()),
        "d_card": max(len(e) for e in edges),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

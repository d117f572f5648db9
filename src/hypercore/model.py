"""Hypergraph data model: label interning, the pair table, CSR incidence/adjacency,
neighborhood queries.

The hypergraph is immutable after build; every algorithm in this package reads it
through the queries defined here.  Nodes are dense integers in [0, n); the label
table maps them back to the input tokens in first-seen order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# Largest pair table (sum of |e|(|e| - 1) over hyperedges) a hypergraph may
# have; every row costs about 40 bytes while the table is built.
PAIR_ROW_GUARD = 2**25


class HypergraphError(Exception):
    """Base class for errors raised by this package."""


class InputError(HypergraphError):
    """Malformed input (bad edge list, parse failure, rejected singleton)."""


class GuardError(HypergraphError):
    """A size guard on an oracle/brute-force routine was exceeded."""


class SingletonPolicy(enum.Enum):
    REJECT = "reject"
    DROP = "drop"


@dataclass
class BuildReport:
    """What the builder filtered out of the raw edge lists."""

    duplicate_edges: list[int] = field(default_factory=list)  # input indices
    singleton_edges: list[int] = field(default_factory=list)  # input indices (policy=DROP)
    isolated_labels: list[str] = field(default_factory=list)  # first-seen order


class Hypergraph:
    """Immutable simple hypergraph with CSR incidence and neighbor adjacency.

    The (v, u) co-occurrence pairs are enumerated once, into a pair table:
    one row per ordered pair of distinct members of a hyperedge, sorted and
    grouped by (v, u).  Group g is the pair of nbr_flat[g] and the node whose
    nbr_offsets range holds g.

    Every hyperedge is a strictly ascending tuple of at least 2 node ids in
    [0, n), and every node is a member of some hyperedge: any other edge, or
    a label in none, is an InputError (`build` strips such labels and
    reports them as isolated).

    Attributes:
        n: number of retained nodes.
        edges: canonical hyperedges, each a strictly ascending tuple of node ids.
        labels: node id -> original label, in first-seen order.
        edge_flat, edge_starts: concatenated members, and each edge's offset.
        pair_edge, pair_starts: hyperedge of each row, first row of each group.
        d_pair: largest group size, i.e. most hyperedges sharing a node pair.
    """

    __slots__ = (
        "n",
        "edges",
        "labels",
        "label_to_id",
        "inc_offsets",
        "inc_flat",
        "nbr_offsets",
        "nbr_flat",
        "edge_flat",
        "edge_starts",
        "pair_edge",
        "pair_starts",
        "d_pair",
    )

    def __init__(self, edges: list[tuple[int, ...]], labels: list[str]):
        self.n = len(labels)
        self.edges = edges
        self.labels = labels
        self.label_to_id = {lab: i for i, lab in enumerate(labels)}
        self._build_csr()

    def _build_csr(self) -> None:
        n, m = self.n, len(self.edges)
        cards = np.fromiter(map(len, self.edges), dtype=np.int64, count=m)
        self.edge_flat = edge_flat = np.fromiter(
            chain.from_iterable(self.edges), dtype=np.int64, count=int(cards.sum()))
        edge_of = np.repeat(np.arange(m), cards)
        bad = cards < 2
        bad[edge_of[(edge_flat < 0) | (edge_flat >= n)]] = True
        bad[edge_of[1:][(np.diff(edge_flat) <= 0) & (edge_of[1:] == edge_of[:-1])]] = True
        if bad.any():
            e = int(bad.argmax())
            raise InputError(f"hyperedge {e} {self.edges[e]!r} is not a strictly "
                             f"ascending tuple of at least 2 node ids in [0, {n})")
        isolated = np.flatnonzero(np.bincount(edge_flat, minlength=n) == 0)
        if isolated.size:
            raise InputError(f"label {self.labels[isolated[0]]!r} is in no hyperedge")
        rows = int(cards @ (cards - 1))
        if rows > PAIR_ROW_GUARD:
            raise GuardError(f"pair-table guard: {rows} pair rows > {PAIR_ROW_GUARD}")
        self.edge_starts = np.zeros(m, dtype=np.int64)
        np.cumsum(cards[:-1], out=self.edge_starts[1:])

        # one row per ordered member pair, built per cardinality: key v * n + u
        keys = [np.empty(0, dtype=np.int64)]
        edge_ids = [np.empty(0, dtype=np.int64)]
        for c in np.flatnonzero(np.bincount(cards)).tolist():
            idx = np.flatnonzero(cards == c)
            members = edge_flat[self.edge_starts[idx, None] + np.arange(c)]
            grid = members[:, :, None] * n + members[:, None, :]
            keys.append(grid[:, ~np.eye(c, dtype=bool)].ravel())
            edge_ids.append(np.repeat(idx, c * (c - 1)))
            del grid
        key, pair_edge = np.concatenate(keys), np.concatenate(edge_ids)
        del keys, edge_ids
        order = np.argsort(key)
        key = key[order]
        self.pair_edge = pair_edge[order]
        del order, pair_edge
        self.pair_starts = np.flatnonzero(np.diff(key, prepend=-1))
        self.d_pair = int(np.diff(self.pair_starts, append=rows).max(initial=0))
        group_v, group_u = np.divmod(key[self.pair_starts], n)
        del key

        # the lists share one int object per node id and per edge id
        inc_order = np.argsort(edge_flat, kind="stable")
        self.inc_flat = np.repeat(np.arange(m, dtype=object), cards)[inc_order].tolist()
        self.inc_offsets = np.searchsorted(edge_flat[inc_order], np.arange(n + 1)).tolist()
        self.nbr_flat = np.arange(n, dtype=object)[group_u].tolist()
        self.nbr_offsets = np.searchsorted(group_v, np.arange(n + 1)).tolist()

    # -- queries -----------------------------------------------------------

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise InputError(f"invalid node id {v}")

    def neighbors(self, v: int) -> list[int]:
        """Sorted co-occurrence set of v, excluding v itself."""
        self._check_node(v)
        return self.nbr_flat[self.nbr_offsets[v] : self.nbr_offsets[v + 1]]

    def neighbor_count(self, v: int) -> int:
        self._check_node(v)
        return self.nbr_offsets[v + 1] - self.nbr_offsets[v]

    def degree(self, v: int) -> int:
        self._check_node(v)
        return self.inc_offsets[v + 1] - self.inc_offsets[v]

    def incident_edges(self, v: int) -> list[int]:
        self._check_node(v)
        return self.inc_flat[self.inc_offsets[v] : self.inc_offsets[v + 1]]

    def residual_neighbors(self, v: int, alive: Sequence[bool]) -> set[int]:
        """Neighbors of v among edges whose members are all alive.

        The definitional member scan, kept for the oracles and checks; the
        peeling loops track liveness incrementally in `Residual`.
        """
        out: set[int] = set()
        inc = self.inc_flat
        for i in range(self.inc_offsets[v], self.inc_offsets[v + 1]):
            e = self.edges[inc[i]]
            for u in e:
                if not alive[u]:
                    break
            else:
                out.update(e)
        out.discard(v)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Hypergraph(n={self.n}, m={len(self.edges)})"


class Residual:
    """A residual subhypergraph of H, as peeling shrinks it.

    It starts from `edges` (default: every hyperedge of H), all live, on the
    nodes that are their members.  Callers pass a set that is strongly
    induced on its members, such as the hyperedges whose members all have
    core number >= k.  A hyperedge dies with its first deleted member, so
    liveness is decided once per hyperedge instead of by a member scan per
    query, and building the residual costs the members of `edges` alone.

    Attributes:
        alive: node -> still in the residual.
        live: hyperedge -> every member still alive.
        degree: node -> number of live hyperedges containing it.
    """

    __slots__ = ("H", "alive", "live", "degree")

    def __init__(self, H: Hypergraph, edges: Iterable[int] | None = None):
        self.H = H
        if edges is None:
            # a Hypergraph has no isolated node, so every node is alive
            self.alive = [True] * H.n
            self.live = [True] * len(H.edges)
            self.degree = np.diff(H.inc_offsets).tolist()
            return
        self.alive = alive = [False] * H.n
        self.live = live = [False] * len(H.edges)
        self.degree = degree = [0] * H.n
        for ei in edges:
            live[ei] = True
            for u in H.edges[ei]:
                alive[u] = True
                degree[u] += 1

    def neighbors(self, v: int) -> set[int]:
        """Union of v's live hyperedges, without v."""
        H, live = self.H, self.live
        out: set[int] = set()
        for ei in H.inc_flat[H.inc_offsets[v] : H.inc_offsets[v + 1]]:
            if live[ei]:
                out.update(H.edges[ei])
        out.discard(v)
        return out

    def delete(self, v: int) -> set[int]:
        """Remove v and kill its live hyperedges; returns v's neighbors from
        before the deletion, the only nodes whose residual changed."""
        H, live, degree = self.H, self.live, self.degree
        out: set[int] = set()
        for ei in H.inc_flat[H.inc_offsets[v] : H.inc_offsets[v + 1]]:
            if live[ei]:
                live[ei] = False
                e = H.edges[ei]
                out.update(e)
                for u in e:
                    degree[u] -= 1
        out.discard(v)
        self.alive[v] = False
        return out


def build(
    edge_lists: Sequence[Sequence[str]],
    policy: SingletonPolicy = SingletonPolicy.REJECT,
) -> tuple[Hypergraph, BuildReport]:
    """Build a canonical hypergraph from raw label lists.

    Duplicate member sets are dropped (reported), singletons are rejected or
    dropped per `policy`, and nodes left with no retained edge are stripped as
    isolated.  Labels are interned in first-seen order.
    """
    if not edge_lists:
        raise InputError("no hyperedges given")

    intern: dict[str, int] = {}
    kept: dict[tuple[int, ...], None] = {}
    report = BuildReport()
    for idx, members in enumerate(edge_lists):
        if len(members) == 0:
            raise InputError(f"edge {idx}: empty hyperedge")
        ids = tuple(sorted({intern.setdefault(t, len(intern)) for t in members}))
        if len(ids) < 2:
            if policy is SingletonPolicy.REJECT:
                raise InputError(f"edge {idx}: singleton hyperedge {list(members)!r}")
            report.singleton_edges.append(idx)
        elif ids in kept:
            report.duplicate_edges.append(idx)
        else:
            kept[ids] = None
    labels, edges = list(intern), list(kept)

    # only a dropped singleton can leave a label in no kept edge (a duplicate's
    # labels are in its kept copy); the remap keeps id order, so edges stay sorted
    if report.singleton_edges:
        used = set(chain.from_iterable(edges))
        report.isolated_labels = [lab for v, lab in enumerate(labels) if v not in used]
        remap = {v: i for i, v in enumerate(sorted(used))}
        labels = [labels[v] for v in remap]
        edges = [tuple(remap[v] for v in e) for e in edges]
    return Hypergraph(edges, labels), report


def parse_hg(text: str, policy: SingletonPolicy = SingletonPolicy.REJECT) -> tuple[Hypergraph, BuildReport]:
    """Parse the .hg text format: one edge per line, whitespace-separated.  A
    line whose first non-blank character is '#' is a comment; elsewhere '#' is
    part of a label.  Blank lines are ignored."""
    edge_lists: list[list[str]] = []
    line_nos: list[int] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            edge_lists.append(tokens)
            line_nos.append(ln)
    if not edge_lists:
        raise InputError("no hyperedges in input")
    try:
        return build(edge_lists, policy)
    except InputError as exc:
        # rewrite edge indices into file line numbers
        head, _, rest = str(exc).partition(": ")
        if head.startswith("edge "):
            raise InputError(f"line {line_nos[int(head[5:])]}: {rest}") from None
        raise


def load_hg(path: str, policy: SingletonPolicy = SingletonPolicy.REJECT) -> tuple[Hypergraph, BuildReport]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
    return parse_hg(text, policy)


def serialize_hg(H: Hypergraph) -> str:
    """Emit the .hg format with canonical sorted members."""
    lines = [" ".join(H.labels[v] for v in e) for e in H.edges]
    return "\n".join(lines) + "\n"

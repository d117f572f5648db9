"""Hypergraph data model: label interning, CSR incidence/adjacency, neighborhood queries.

The hypergraph is immutable after build; every algorithm in this package reads it
through the queries defined here.  Nodes are dense integers in [0, n); the label
table maps them back to the input tokens in first-seen order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence


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

    Attributes:
        n: number of retained nodes.
        edges: canonical hyperedges, each a strictly ascending tuple of node ids.
        labels: node id -> original label, in first-seen order.
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
        "_nbr_lists",
    )

    def __init__(self, edges: list[tuple[int, ...]], labels: list[str]):
        self.n = len(labels)
        self.edges = edges
        self.labels = labels
        self.label_to_id = {lab: i for i, lab in enumerate(labels)}
        self._build_csr()
        self._nbr_lists: list[list[int]] | None = None

    def _build_csr(self) -> None:
        n = self.n
        inc: list[list[int]] = [[] for _ in range(n)]
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for ei, e in enumerate(self.edges):
            for v in e:
                inc[v].append(ei)
                nbrs[v].update(e)
        inc_offsets = [0] * (n + 1)
        nbr_offsets = [0] * (n + 1)
        inc_flat: list[int] = []
        nbr_flat: list[int] = []
        for v in range(n):
            inc_flat.extend(inc[v])
            inc_offsets[v + 1] = len(inc_flat)
            s = nbrs[v]
            s.discard(v)
            nbr_flat.extend(sorted(s))
            nbr_offsets[v + 1] = len(nbr_flat)
        self.inc_offsets = inc_offsets
        self.inc_flat = inc_flat
        self.nbr_offsets = nbr_offsets
        self.nbr_flat = nbr_flat

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

    def neighbor_lists(self) -> list[list[int]]:
        """Materialized adjacency lists; cached, shared, must not be mutated."""
        if self._nbr_lists is None:
            self._nbr_lists = [
                self.nbr_flat[self.nbr_offsets[v] : self.nbr_offsets[v + 1]]
                for v in range(self.n)
            ]
        return self._nbr_lists

    def residual_neighbors(self, v: int, alive: Sequence[bool]) -> set[int]:
        """Neighbors of v among edges whose members are all alive.

        This is the deletion-marked incidence scan used by the peeling
        algorithms: an edge contributes only while every member survives.
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
    first_seen: list[str] = []

    def intern_label(tok: str) -> int:
        i = intern.get(tok)
        if i is None:
            i = len(first_seen)
            intern[tok] = i
            first_seen.append(tok)
        return i

    report = BuildReport()
    seen: set[tuple[int, ...]] = set()
    raw_edges: list[tuple[int, ...]] = []
    for idx, members in enumerate(edge_lists):
        if len(members) == 0:
            raise InputError(f"edge {idx}: empty hyperedge")
        ids = tuple(sorted({intern_label(t) for t in members}))
        if len(ids) < 2:
            if policy is SingletonPolicy.REJECT:
                raise InputError(f"edge {idx}: singleton hyperedge {list(members)!r}")
            report.singleton_edges.append(idx)
            continue
        if ids in seen:
            report.duplicate_edges.append(idx)
            continue
        seen.add(ids)
        raw_edges.append(ids)

    used = {v for e in raw_edges for v in e}
    report.isolated_labels = [lab for lab in first_seen if intern[lab] not in used]

    remap = {}
    labels = []
    for lab in first_seen:
        old = intern[lab]
        if old in used:
            remap[old] = len(labels)
            labels.append(lab)
    edges = [tuple(sorted(remap[v] for v in e)) for e in raw_edges]
    return Hypergraph(edges, labels), report


def parse_hg(text: str, policy: SingletonPolicy = SingletonPolicy.REJECT) -> tuple[Hypergraph, BuildReport]:
    """Parse the .hg text format: one edge per line, '#' comments, blanks ignored."""
    edge_lists: list[list[str]] = []
    line_nos: list[int] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        edge_lists.append(stripped.split())
        line_nos.append(ln)
    if not edge_lists:
        raise InputError("no hyperedges in input")
    try:
        return build(edge_lists, policy)
    except InputError as exc:
        # rewrite edge indices into file line numbers
        msg = str(exc)
        if msg.startswith("edge "):
            idx = int(msg.split()[1].rstrip(":"))
            raise InputError(f"line {line_nos[idx]}: {msg.split(': ', 1)[1]}") from None
        raise


def load_hg(path: str, policy: SingletonPolicy = SingletonPolicy.REJECT) -> tuple[Hypergraph, BuildReport]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hg(fh.read(), policy)


def serialize_hg(H: Hypergraph) -> str:
    """Emit the .hg format with canonical sorted members."""
    lines = [" ".join(H.labels[v] for v in e) for e in H.edges]
    return "\n".join(lines) + "\n"

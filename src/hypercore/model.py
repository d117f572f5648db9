"""Hypergraph data model: label interning, the pair table, CSR incidence/adjacency,
neighborhood queries.

Nodes are dense integers in [0, n), labelled in first-seen order.  The structure
is fixed at build (SIR fills the `nbr_arrays` cache later); algorithms read it
through the queries defined here or straight from `edge_flat`, `pair_edge` and
the other numpy arrays.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count, islice
from typing import Iterable, Iterator, Sequence

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
    [0, n), and every node is a member of some hyperedge: any other edge, a
    label in none or a repeated label is an InputError (`build` strips labels
    in none, reporting them as isolated, and never repeats one).

    Attributes:
        n: number of retained nodes.
        edges: canonical hyperedges, each a strictly ascending tuple of node ids.
        labels: node id -> original label, in first-seen order.
        edge_flat, edge_starts: concatenated members, and each edge's offset.
        pair_edge, pair_starts: hyperedge of each row, first row of each group.
        d_pair: largest group size, i.e. most hyperedges sharing a node pair.
        nbr_arrays: None, or (nbr_offsets, nbr_flat) as int64 arrays; only
            `diffusion.sir_run` fills it, on its first wide frontier, and every
            later run on this hypergraph shares it.
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
        "nbr_arrays",
    )

    def __init__(self, edges: list[tuple[int, ...]], labels: list[str]):
        self.n = len(labels)
        self.edges = edges
        self.labels = labels
        self.label_to_id = dict(zip(labels, range(self.n)))
        if len(self.label_to_id) != self.n:
            dup = next(lab for v, lab in enumerate(labels) if self.label_to_id[lab] != v)
            raise InputError(f"label {dup!r} is repeated")
        self.nbr_arrays: tuple[np.ndarray, np.ndarray] | None = None
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

        # Keys pack two ids by shift: (v << b) | u.  Validation ran first, so
        # n <= incidences <= pair rows <= PAIR_ROW_GUARD = 2**25 (every node is
        # in a hyperedge, and c <= c(c - 1) for c >= 2), and likewise m; hence
        # b <= 26 and every key is below 2**52, well inside int64.
        b = max(n, m).bit_length()
        mask = (1 << b) - 1

        # one row per ordered member pair, built per cardinality: key (v, u)
        keys = [np.empty(0, dtype=np.int64)]
        edge_ids = [np.empty(0, dtype=np.int64)]
        for c in np.flatnonzero(np.bincount(cards)).tolist():
            idx = np.flatnonzero(cards == c)
            members = edge_flat[self.edge_starts[idx, None] + np.arange(c)]
            grid = (members[:, :, None] << b) | members[:, None, :]
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
        group_key = key[self.pair_starts]
        del key

        # incidences sorted by (node, edge); the lists share one int object
        # per node id and per edge id
        incidence = np.sort((edge_flat << b) | edge_of)
        self.inc_flat = np.arange(m, dtype=object)[incidence & mask].tolist()
        self.inc_offsets = np.searchsorted(incidence >> b, np.arange(n + 1)).tolist()
        self.nbr_flat = np.arange(n, dtype=object)[group_key & mask].tolist()
        self.nbr_offsets = np.searchsorted(group_key >> b, np.arange(n + 1)).tolist()

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

        The definitional member scan, kept for the oracles and checks.  Peel,
        e-peel and greedy track liveness incrementally in `Residual`, and
        the (k,d) degree peel in its own live-edge list.
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
    """The residual of H as peeling deletes its nodes, with live pair counts.

    It starts as all of H.  A hyperedge dies with its first deleted member,
    so liveness is decided once per hyperedge instead of by a member scan
    per query.  Live pair counts are kept bucket-style, as in Batagelj and
    Zaversnik (2003), so a recount is one read.  A pair group held by one
    hyperedge empties when that hyperedge dies, so a dying hyperedge lowers
    each member's count by its private pairs there at once and never looks
    those groups up; only a shared group, held by two or more hyperedges, is
    decremented, and it lowers its node's count when it reaches 0.

    Attributes:
        live: hyperedge -> every member still alive.
        count: node -> number of residual neighbors.
        starts: H.edge_starts as a list.
        priv: position p of (hyperedge e, member u) in H.edge_flat -> the
            number of u's pairs in e that no other hyperedge holds.
        shared_offsets, shared_flat: CSR over the same positions; p's entries
            index gcount, one per pair of u in e that another hyperedge holds.
        gcount: shared group, in H.nbr_flat order -> number of live
            hyperedges holding the pair.  With d_pair = 1 it is empty.
    """

    __slots__ = ("H", "live", "count", "starts", "priv", "shared_offsets", "shared_flat",
                 "gcount")

    def __init__(self, H: Hypergraph):
        self.H = H
        m = len(H.edges)
        self.live = [True] * m
        self.count = np.diff(H.nbr_offsets).tolist()
        self.starts = H.edge_starts.tolist()
        cards = np.diff(H.edge_starts, append=len(H.edge_flat))
        edge_of = np.repeat(np.arange(m), cards)
        sizes = np.diff(H.pair_starts, append=len(H.pair_edge))
        shared = np.flatnonzero(sizes > 1)
        reps = sizes[shared]
        # each shared row's position in edge_flat: (its hyperedge, its group's node)
        owner = np.searchsorted(H.nbr_offsets, shared, side="right") - 1
        b = max(H.n, m).bit_length()
        rows = _ranges(H.pair_starts[shared], reps)
        pos = np.searchsorted((edge_of << b) | H.edge_flat,
                              (H.pair_edge[rows] << b) | np.repeat(owner, reps))
        entries = np.repeat(np.arange(shared.size), reps)
        self.shared_flat = entries[np.argsort(pos, kind="stable")].tolist()
        at = np.bincount(pos, minlength=edge_of.size)
        self.priv = (cards[edge_of] - 1 - at).tolist()
        self.shared_offsets = np.concatenate(([0], np.cumsum(at))).tolist()
        self.gcount = reps.tolist()

    def delete(self, v: int) -> set[int]:
        """Remove v and kill its live hyperedges; returns v's neighbors from
        before the deletion, the only nodes whose residual changed."""
        H, live, count, gcount = self.H, self.live, self.count, self.gcount
        starts, priv = self.starts, self.priv
        offsets, flat = self.shared_offsets, self.shared_flat
        out: set[int] = set()
        for ei in H.inc_flat[H.inc_offsets[v] : H.inc_offsets[v + 1]]:
            if live[ei]:
                live[ei] = False
                e = H.edges[ei]
                out.update(e)
                p = starts[ei]
                q = p + len(e)
                for u, k in zip(e, priv[p:q]):
                    count[u] -= k
                if offsets[p] != offsets[q]:
                    for u in e:
                        for s in flat[offsets[p] : offsets[p + 1]]:
                            gcount[s] -= 1
                            if not gcount[s]:
                                count[u] -= 1
                        p += 1
        out.discard(v)
        return out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[i], starts[i] + lengths[i])."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def build(
    edge_lists: Iterable[Sequence[str]],
    policy: SingletonPolicy = SingletonPolicy.REJECT,
) -> tuple[Hypergraph, BuildReport]:
    """Build a canonical hypergraph from raw label lists.

    `edge_lists` is read once, so it may be a generator.  Labels are interned
    in first-seen order as each list is read; the id rows are then sorted
    per cardinality, and only a row that repeats a label is deduplicated
    member by member.  Errors, duplicates and singletons are decided in input
    order: duplicate member sets are dropped (reported), singletons are
    rejected or dropped per `policy`, and nodes left with no retained edge
    are stripped as isolated.
    """
    intern: defaultdict[str, int] = defaultdict(count().__next__)
    flat: list[int] = []
    sizes: list[int] = []
    for members in edge_lists:
        flat.extend(map(intern.__getitem__, members))
        sizes.append(len(members))
    if not sizes:
        raise InputError("no hyperedges given")
    labels = list(intern)

    # each row's ids sorted, in input order; a repeated label leaves a
    # shorter row, one distinct label a singleton and no label an empty row
    cards = np.array(sizes, dtype=np.int64)
    ids = np.fromiter(flat, dtype=np.int64, count=len(flat))
    del flat
    starts = np.cumsum(cards) - cards
    rows: list[tuple[int, ...]] = [()] * len(sizes)
    for c in np.flatnonzero(np.bincount(cards)).tolist():
        idx = np.flatnonzero(cards == c)
        block = np.sort(ids[starts[idx, None] + np.arange(c)], axis=1)
        for i, row in zip(idx.tolist(), zip(*block.T.tolist())):
            rows[i] = row
        for i in idx[(block[:, 1:] == block[:, :-1]).any(axis=1)].tolist():
            rows[i] = tuple(dict.fromkeys(rows[i]))
    del ids, starts

    kept: dict[tuple[int, ...], None] = {}
    report = BuildReport()
    for idx, row in enumerate(rows):
        if len(row) < 2:
            if not row:
                raise InputError(f"edge {idx}: empty hyperedge")
            if policy is SingletonPolicy.REJECT:
                tokens = [labels[row[0]]] * sizes[idx]
                raise InputError(f"edge {idx}: singleton hyperedge {tokens!r}")
            report.singleton_edges.append(idx)
        elif row in kept:
            report.duplicate_edges.append(idx)
        else:
            kept[row] = None
    edges = list(kept)
    del rows, kept

    # only a dropped singleton can leave a label in no kept edge (a duplicate's
    # labels are in its kept copy); the remap keeps id order, so edges stay sorted
    if report.singleton_edges:
        used = set(chain.from_iterable(edges))
        report.isolated_labels = [lab for v, lab in enumerate(labels) if v not in used]
        remap = {v: i for i, v in enumerate(sorted(used))}
        labels = [labels[v] for v in remap]
        edges = [tuple(remap[v] for v in e) for e in edges]
    return Hypergraph(edges, labels), report


def _edge_tokens(lines: Iterable[str]) -> Iterator[list[str]]:
    """Each hyperedge line's tokens; a blank line, or one whose first token
    starts with '#', is skipped."""
    for tokens in map(str.split, lines):
        if tokens and tokens[0][0] != "#":
            yield tokens


def parse_hg(text: str, policy: SingletonPolicy = SingletonPolicy.REJECT) -> tuple[Hypergraph, BuildReport]:
    """Parse the .hg text format: one edge per line, whitespace-separated.  A
    line whose first non-blank character is '#' is a comment; elsewhere '#' is
    part of a label.  Blank lines are ignored, and so is one leading byte
    order mark (U+FEFF).

    `build` reads each line's tokens as the line is split, so no list of every
    line's tokens is held."""
    text = text.removeprefix("\ufeff")
    edges = _edge_tokens(text.splitlines())
    first = next(edges, None)
    if first is None:
        raise InputError("no hyperedges in input")
    try:
        return build(chain((first,), edges), policy)
    except InputError as exc:
        # rewrite the edge index into the line number of that hyperedge line
        head, _, rest = str(exc).partition(": ")
        if head.startswith("edge "):
            line_nos = (ln for ln, line in enumerate(text.splitlines(), start=1)
                        if any(_edge_tokens((line,))))
            ln = next(islice(line_nos, int(head[5:]), None))
            raise InputError(f"line {ln}: {rest}") from None
        raise


def load_hg(path: str, policy: SingletonPolicy = SingletonPolicy.REJECT) -> tuple[Hypergraph, BuildReport]:
    with open(path, "rb") as fh:
        data = fh.read()
    # not "utf-8-sig": it counts a decode error's offset from after the mark;
    # parse_hg drops the mark
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
    return parse_hg(text, policy)


def serialize_hg(H: Hypergraph) -> str:
    """Emit the .hg format with canonical sorted members."""
    lines = [" ".join(H.labels[v] for v in e) for e in H.edges]
    return "\n".join(lines) + "\n"

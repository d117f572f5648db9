"""Hypergraph data model: label interning, the pair table, CSR incidence/adjacency,
neighborhood queries.

Nodes are dense integers in [0, n), labelled in first-seen order.  The structure
is fixed at build, and nothing writes to it after; algorithms read it through
the queries defined here or straight from `edge_flat`, `nbr_offsets` and the
other int64 arrays.
"""

from __future__ import annotations

import enum
import operator
import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, count
from typing import Callable, Iterable, Sequence

import numpy as np

# Largest pair table (sum of |e|(|e| - 1) over hyperedges) a hypergraph may
# have.  Peak RSS per row above the imports, on one 2,000-member hyperedge
# (3,998,000 rows; Python 3.11, numpy 2.4, x86-64 Linux), is 40.3 bytes after
# `Hypergraph()` and still 40.3 after `peel` and `local_core`, so `decompose
# --algorithm local` or `peel` near the guard peaks at about 1.4 GB.
PAIR_ROW_GUARD = 2**25


class HypergraphError(Exception):
    """Base class for errors raised by this package."""


class InputError(HypergraphError):
    """Malformed input (bad edge list, parse failure, rejected singleton)."""


class GuardError(HypergraphError):
    """An input too large for a routine was refused by one of the size
    guards: the pair-row guard (`PAIR_ROW_GUARD`, in `Hypergraph` and on
    `gen.random_hypergraph`'s drawn cardinalities), the (k,d) lattice guard
    (`kdcore.LATTICE_GUARD`) or the brute-force enumeration guard
    (`densest.BRUTE_FORCE_NODE_GUARD`)."""


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

    Hyperedge e holds the next cards[e] ids of edge_flat; this edge CSR is
    its only form.  The constructor alone lists the (v, u) co-occurrence
    pairs, one row per ordered pair of members of a hyperedge, grouped by
    (v, u): group g is nbr_flat[g] and the node whose nbr_offsets range
    holds g.  Only groups that two or more hyperedges hold keep holders.

    Every hyperedge's ids are strictly ascending, at least 2 and in [0, n),
    and every node is a member of some hyperedge: any other edge, a label in
    none, a repeated label or cards that do not cut edge_flat is an
    InputError (`build` strips labels in none, reporting them as isolated,
    and never repeats one).

    Attributes (every array, the CSR ones included, is int64 and fixed at build):
        n: number of retained nodes.
        labels: node id -> original label, in first-seen order.
        edge_offsets, edge_flat: CSR of each hyperedge's members, m + 1 offsets.
        inc_*, nbr_*: CSR (offsets, flat) of each node's hyperedges, neighbors.
        shared_node, shared_holder, shared_count: per shared group, in nbr_flat
            order, its node, its holders end to end (in no set order), their count.
        d_pair: largest group size, i.e. most hyperedges sharing a node pair.
    """

    __slots__ = ("n", "labels", "label_to_id", "inc_offsets", "inc_flat", "nbr_offsets",
                 "nbr_flat", "edge_flat", "edge_offsets", "shared_node", "shared_holder",
                 "shared_count", "d_pair")

    def __init__(self, edge_flat: Sequence[int], cards: Sequence[int], labels: list[str]):
        self.n = n = len(labels)
        self.labels = labels
        self.label_to_id = dict(zip(labels, range(n)))
        if len(self.label_to_id) != n:
            dup = next(lab for v, lab in enumerate(labels) if self.label_to_id[lab] != v)
            raise InputError(f"label {dup!r} is repeated")
        edge_flat, cards = np.asarray(edge_flat), np.asarray(cards)
        if any(a.size and a.dtype.kind not in "iu" for a in (edge_flat, cards)) \
                or edge_flat.ndim != 1 or cards.ndim != 1 or cards.min(initial=0) < 0 \
                or cards.sum() != edge_flat.size:
            raise InputError("edge_flat and cards must be 1-D integer arrays, cards >= 0 "
                             "with sum len(edge_flat)")
        self.edge_flat = edge_flat = edge_flat.astype(np.int64, copy=False)
        cards = cards.astype(np.int64, copy=False)
        m = cards.size
        self.edge_offsets = offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(cards, out=offsets[1:])
        edge_of = np.repeat(np.arange(m), cards)
        bad = cards < 2
        bad[edge_of[(edge_flat < 0) | (edge_flat >= n)]] = True
        bad[edge_of[1:][(np.diff(edge_flat) <= 0) & (edge_of[1:] == edge_of[:-1])]] = True
        if bad.any():
            e = int(bad.argmax())
            members = tuple(edge_flat[offsets[e] : offsets[e + 1]].tolist())
            raise InputError(f"hyperedge {e} {members!r} is not a strictly "
                             f"ascending tuple of at least 2 node ids in [0, {n})")
        isolated = np.flatnonzero(np.bincount(edge_flat, minlength=n) == 0)
        if isolated.size:
            raise InputError(f"label {self.labels[isolated[0]]!r} is in no hyperedge")
        rows = int(cards @ (cards - 1))
        if rows > PAIR_ROW_GUARD:
            raise GuardError(f"pair-table guard: {rows} pair rows > {PAIR_ROW_GUARD}")

        # Keys pack two ids by shift: (v << b) | u.  Validation ran first, so
        # n <= incidences <= pair rows <= PAIR_ROW_GUARD = 2**25 (every node is
        # in a hyperedge, and c <= c(c - 1) for c >= 2), and likewise m; hence
        # b <= 26 and every key is below 2**52, well inside int64.
        b = max(n, m).bit_length()
        mask = (1 << b) - 1

        # one row per ordered member pair, key (v, u): incidence (v, e) against
        # e's edge_flat range with v's own position skipped
        others = cards[edge_of] - 1
        src = np.arange(edge_flat.size).repeat(others)  # each row's incidence
        at = _ranges(offsets[edge_of], others)
        at += at >= src
        key = (edge_flat[src] << b) | edge_flat[at]
        row_edge = edge_of[src]
        del src, at, others
        order = np.argsort(key)
        key = key[order]
        row_edge = row_edge[order]
        del order
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        size = np.diff(starts, append=rows)
        self.d_pair = int(size.max(initial=0))
        shared = np.flatnonzero(size > 1)
        group_key = key[starts]
        self.shared_node, self.shared_count = group_key[shared] >> b, size[shared]
        self.shared_holder = row_edge[_ranges(starts[shared], self.shared_count)]
        del key, row_edge, starts, size

        # incidences sorted by (node, edge)
        incidence = np.sort((edge_flat << b) | edge_of)
        self.inc_flat = incidence & mask
        self.inc_offsets = np.searchsorted(incidence >> b, np.arange(n + 1))
        self.nbr_flat = group_key & mask
        self.nbr_offsets = np.searchsorted(group_key >> b, np.arange(n + 1))

    # -- queries -----------------------------------------------------------

    def _check_node(self, v: int) -> int:
        try:
            if 0 <= (v := operator.index(v)) < self.n:
                return v
        except TypeError:  # not an integer
            pass
        raise InputError(f"invalid node id {v}")

    def neighbors(self, v: int) -> list[int]:
        """Sorted co-occurrence set of v, excluding v itself."""
        v = self._check_node(v)
        return self.nbr_flat[self.nbr_offsets[v] : self.nbr_offsets[v + 1]].tolist()

    def neighbor_count(self, v: int) -> int:
        v = self._check_node(v)
        return int(self.nbr_offsets[v + 1] - self.nbr_offsets[v])

    def degree(self, v: int) -> int:
        v = self._check_node(v)
        return int(self.inc_offsets[v + 1] - self.inc_offsets[v])

    def residual_neighbors(self, v: int, alive: Sequence[bool]) -> set[int]:
        """Neighbors of v among edges whose members are all alive.

        The definitional member scan, which `volume_density` and the tests'
        references read.  Peel, e-peel and greedy track liveness
        incrementally in `Residual`, and the (k,d) degree peel in its own
        live-edge list.
        """
        v = self._check_node(v)
        flat, offsets = self.edge_flat, self.edge_offsets
        out: set[int] = set()
        for ei in self.inc_flat[self.inc_offsets[v] : self.inc_offsets[v + 1]].tolist():
            e = flat[offsets[ei] : offsets[ei + 1]].tolist()
            for u in e:
                if not alive[u]:
                    break
            else:
                out.update(e)
        out.discard(v)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Hypergraph(n={self.n}, m={self.edge_offsets.size - 1})"


def member_lists(H: Hypergraph) -> list[list[int]]:
    """Each hyperedge's ascending member ids, cut from `edge_flat`, for a loop
    that reads members one hyperedge at a time; the caller holds the lists."""
    flat, offsets = H.edge_flat.tolist(), H.edge_offsets.tolist()
    return [flat[a:b] for a, b in zip(offsets, offsets[1:])]


class Residual:
    """The residual of H as peeling deletes its nodes, with live pair counts.

    It starts as all of H.  A hyperedge dies with its first deleted member,
    so liveness is decided once per hyperedge instead of by a member scan
    per query.  Live pair counts are kept bucket-style, as in Batagelj and
    Zaversnik (2003), so a recount is one read.  A dying hyperedge e lowers
    every member's count by |e| - 1 at once, since a pair group held by e
    alone empties with it; only a shared group, held by two or more
    hyperedges, is decremented, and each one still held gives its node one
    back.

    Attributes:
        live: hyperedge -> every member still alive.
        count: node -> number of residual neighbors.
        edge_offsets, edge_flat: H's edge CSR as lists, cut as each hyperedge dies.
        inc_offsets, inc_flat: H's incidence CSR as lists, one int object per edge id.
        shared_offsets, shared_flat: CSR over hyperedges; e's entries index
            gcount, one per ordered pair of members of e that another
            hyperedge also holds.
        gcount: shared group, in H.nbr_flat order -> number of live
            hyperedges holding the pair.  With d_pair = 1 it is empty.
        gnode: shared group -> the node whose neighbor it counts.
    """

    __slots__ = ("edge_offsets", "edge_flat", "live", "count", "inc_offsets", "inc_flat",
                 "shared_offsets", "shared_flat", "gcount", "gnode")

    def __init__(self, H: Hypergraph):
        self.edge_offsets, self.edge_flat = H.edge_offsets.tolist(), H.edge_flat.tolist()
        m = len(self.edge_offsets) - 1
        self.live = [True] * m
        self.count = np.diff(H.nbr_offsets).tolist()
        self.inc_offsets = H.inc_offsets.tolist()
        self.inc_flat = np.arange(m, dtype=object)[H.inc_flat].tolist()
        holder, reps = H.shared_holder, H.shared_count
        entries = np.repeat(np.arange(reps.size), reps)
        self.shared_flat = entries[np.argsort(holder, kind="stable")].tolist()
        self.shared_offsets = [0] + np.cumsum(np.bincount(holder, minlength=m)).tolist()
        self.gcount, self.gnode = reps.tolist(), H.shared_node.tolist()

    def delete(self, v: int) -> set[int]:
        """Remove v and kill its live hyperedges; returns v's neighbors from
        before the deletion, the only nodes whose residual changed."""
        starts, members, live, count = self.edge_offsets, self.edge_flat, self.live, self.count
        gcount, gnode, inc = self.gcount, self.gnode, self.inc_offsets
        offsets, flat = self.shared_offsets, self.shared_flat
        out: set[int] = set()
        for ei in self.inc_flat[inc[v] : inc[v + 1]]:
            if live[ei]:
                live[ei] = False
                e = members[starts[ei] : starts[ei + 1]]
                out.update(e)
                k = len(e) - 1
                for u in e:
                    count[u] -= k
                for s in flat[offsets[ei] : offsets[ei + 1]]:
                    gcount[s] -= 1
                    if gcount[s]:
                        count[gnode[s]] += 1
        out.discard(v)
        return out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[i], starts[i] + lengths[i])."""
    ends = lengths.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (starts - ends + lengths).repeat(lengths)


def _rows(offsets: np.ndarray, flat: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of each of `rows` of the CSR (offsets, flat), end to end,
    and how many each row holds: the one numpy gather of CSR rows."""
    starts = offsets[rows]
    count = offsets[1:][rows] - starts
    return flat[_ranges(starts, count)], count


def build(
    edge_lists: Iterable[Sequence[str]],
    policy: SingletonPolicy = SingletonPolicy.REJECT,
) -> tuple[Hypergraph, BuildReport]:
    """Build a canonical hypergraph from raw label lists.

    `edge_lists` is read once, so it may be a generator.  Labels are interned
    in first-seen order as each list is read; the id rows then go to the
    numpy half that `parse_hg` shares (`_from_rows`), where they are sorted,
    cut to distinct members and compared.  Errors, duplicates and singletons
    are decided in input order: duplicate member sets are dropped
    (reported), singletons are rejected or dropped per `policy`, and nodes
    left with no retained edge are stripped as isolated.
    """
    intern: defaultdict[str, int] = defaultdict(count().__next__)
    flat: list[int] = []
    sizes: list[int] = []
    for members in edge_lists:
        flat.extend(map(intern.__getitem__, members))
        sizes.append(len(members))
    if not sizes:
        raise InputError("no hyperedges given")
    ids = np.fromiter(flat, dtype=np.int64, count=len(flat))
    del flat
    return _from_rows(ids, np.array(sizes, dtype=np.int64), list(intern), policy, "edge {}".format)


def _from_rows(
    ids: np.ndarray,
    sizes: np.ndarray,
    labels: list[str],
    policy: SingletonPolicy,
    row_name: Callable[[int], str],
) -> tuple[Hypergraph, BuildReport]:
    """The hypergraph of interned rows: row i is the next sizes[i] ids, in
    input order, of labels; an error names row i by row_name(i)."""
    # one sort of the keys row * n + id sorts every row's ids, in input order,
    # and puts a label repeated within its row next to its first copy; a key
    # stays below m * n
    n, m = len(labels), sizes.size
    key = np.repeat(np.arange(m), sizes) * n + ids
    del ids
    key.sort()
    row, ids = np.divmod(key[np.diff(key, prepend=-1) != 0], max(n, 1))
    cards = np.bincount(row, minlength=m)
    offsets = np.cumsum(cards) - cards
    del key, row

    short = np.flatnonzero(cards < (1 if policy is SingletonPolicy.DROP else 2))
    if short.size:
        idx = int(short[0])
        if not cards[idx]:
            raise InputError(f"{row_name(idx)}: empty hyperedge")
        tokens = [labels[ids[offsets[idx]]]] * int(sizes[idx])
        raise InputError(f"{row_name(idx)}: singleton hyperedge {tokens!r}")
    report = BuildReport(singleton_edges=np.flatnonzero(cards == 1).tolist())

    # per width, each row is packed into one int64 key that sorts as the row
    # does: its ascending ids are shifted in, b bits each, while they fit in
    # 63 bits, and then the key so far is replaced by its dense rank.  A
    # stable argsort of the keys puts a repeat right after its first copy.
    keep = cards >= 2
    b = max(n - 1, 1).bit_length()
    for c in np.flatnonzero(np.bincount(cards[keep]) > 1).tolist():
        idx = np.flatnonzero(cards == c)
        at = offsets[idx]
        key, bits = ids[at], b
        for j in range(1, c):
            if bits + b > 63:
                key, bits = _dense_rank(key), max(idx.size - 1, 1).bit_length()
            key = (key << b) | ids[at + j]
            bits += b
        order = key.argsort(kind="stable")
        key = key[order]
        keep[idx[order[1:][key[1:] == key[:-1]]]] = False
    report.duplicate_edges = np.flatnonzero(~keep & (cards >= 2)).tolist()
    edge_flat, cards = ids[np.repeat(keep, cards)], cards[keep]
    del ids, offsets

    # only a dropped singleton can leave a label in no kept edge (a duplicate's
    # labels are in its kept copy); the remap keeps id order, so edges stay sorted
    if report.singleton_edges:
        used = np.bincount(edge_flat, minlength=n) > 0
        report.isolated_labels = [labels[v] for v in np.flatnonzero(~used).tolist()]
        labels = [labels[v] for v in np.flatnonzero(used).tolist()]
        edge_flat = (np.cumsum(used) - 1)[edge_flat]
    return Hypergraph(edge_flat, cards, labels), report


def _dense_rank(key: np.ndarray) -> np.ndarray:
    """Each key's rank among the distinct keys, ascending from 0."""
    order = key.argsort()
    ordered = key[order]
    step = np.empty(key.size, dtype=np.int64)
    step[:1] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    rank = np.empty_like(key)
    rank[order] = step.cumsum()
    return rank


# The tokenizer reads the text a slice at a time, each slice ending just
# after a line break.  Splitting the whole text at once was as fast, but it
# held every token string at once, and the pymalloc arenas that keep the
# label strings alive stayed resident.  One load of a 774 KB file of 120 K
# tokens raised ru_maxrss over the imports by 32.9 MB as one slice, 25.5 MB
# in slices of 64 K characters and 25.4 MB line by line (Python 3.11.7,
# numpy 2.4.6, x86-64 Linux).
SLICE_CHARS = 1 << 16

# str.splitlines' line breaks, \r\n counted as one, and the rest of
# str.split's whitespace (every break is also whitespace; 29 code points in
# all, the last U+3000).  _CLASS[c] is 2 for a break, 1 for other
# whitespace and 0 for any other code point; one past the last whitespace
# stands for all the code points above.
_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_BLANKS = "\t\x1f \xa0\u1680\u202f\u205f\u3000" + "".join(map(chr, range(0x2000, 0x200B)))
_BREAK = re.compile("\r\n|[" + _BREAKS + "]")
_CLASS = np.zeros(0x3002, dtype=np.uint8)
_CLASS[[ord(c) for c in _BLANKS]] = 1
_CLASS[[ord(c) for c in _BREAKS]] = 2


def parse_hg(text: str, policy: SingletonPolicy = SingletonPolicy.REJECT) -> tuple[Hypergraph, BuildReport]:
    """Parse the .hg text format: one edge per line, whitespace-separated.  A
    line whose first non-blank character is '#' is a comment; elsewhere '#' is
    part of a label.  Lines are those of `str.splitlines` and tokens those of
    `str.split`, for any Unicode text.  Blank lines are ignored, and so is one
    leading byte order mark (U+FEFF).

    The text is read in slices of about `SLICE_CHARS` characters, each ending
    just after a line break.  A slice is split once; numpy finds each token's
    line from the slice's code points, and the tokens of hyperedge lines are
    interned in one pass, so no list of every token is held.  The rows go to
    the numpy half that `build` uses, and an error names the row's line."""
    text = text.removeprefix("\ufeff")
    intern: defaultdict[str, int] = defaultdict(count().__next__)
    ids, sizes, line_nos = [], [], []
    lines = 0  # line breaks before the slice
    start = 0
    while start < len(text):
        cut = _BREAK.search(text, start + SLICE_CHARS - 1)
        piece = text[start : cut.end() if cut else len(text)]
        start += len(piece)
        tokens = piece.split()
        code = np.frombuffer(piece.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        kind = _CLASS.take(code, mode="clip")
        breaks = np.flatnonzero(kind == 2)
        # the \n of a \r\n ends no line of its own; no slice starts inside one
        breaks = breaks[(code[breaks] != 10) | (code[breaks - 1] != 13) | (breaks == 0)]
        solid = np.concatenate(([False], kind == 0))
        firsts = np.flatnonzero(solid[1:] > solid[:-1])  # each token's first character
        line = np.searchsorted(breaks, firsts)
        heads = np.flatnonzero(np.diff(line, prepend=-1))  # each line's first token
        widths = np.diff(heads, append=firsts.size)
        edge = code[firsts[heads]] != ord("#")
        if not edge.all():
            tokens = list(compress(tokens, np.repeat(edge, widths).tolist()))
        ids.append(np.fromiter(map(intern.__getitem__, tokens), dtype=np.int64, count=len(tokens)))
        sizes.append(widths[edge])
        line_nos.append(line[heads[edge]] + (lines + 1))
        lines += breaks.size
        del tokens, code, kind  # before the next slice's are made
    if not sum(map(len, sizes)):
        raise InputError("no hyperedges in input")
    line_of = _joined(line_nos)
    return _from_rows(_joined(ids), _joined(sizes), list(intern), policy,
                      lambda i: f"line {line_of[i]}")


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts end to end.  The list is emptied, so that the parts are freed
    and a callee handed the result holds its only reference."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def load_hg(path: str, policy: SingletonPolicy = SingletonPolicy.REJECT) -> tuple[Hypergraph, BuildReport]:
    """The hypergraph in the .hg file at `path`, and what building it
    dropped or merged.  The file is read whole and decoded as UTF-8 (an
    InputError names the first bad byte's offset), then parsed by
    `parse_hg` under `policy`; a file that cannot be read raises its
    OSError."""
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
    """The .hg text that `parse_hg` reads back to H's hyperedges, a line each:
    members in ascending id order, those whose label starts with '#' after
    the rest, so that no line is a comment.  What parse_hg cannot read back
    is an InputError: no hyperedge, an empty label, one with whitespace, or
    a hyperedge of '#' labels alone."""
    labels = H.labels
    if not labels:
        raise InputError("the empty hypergraph has no .hg text")
    if bad := [label for label in labels if label.split() != [label]]:
        raise InputError(f"label {bad[0]!r} is empty or holds whitespace")
    pound = [label[0] == "#" for label in labels]
    lines = []
    for e in member_lists(H):
        e.sort(key=pound.__getitem__)  # stable: each part keeps its ascending ids
        if pound[e[0]]:
            raise InputError(f"hyperedge {[labels[v] for v in e]}: every label starts with '#'")
        lines.append(" ".join([labels[v] for v in e]))
    # parse_hg drops one leading byte order mark
    text = "\n".join(lines) + "\n"
    return "\ufeff" + text if text[0] == "\ufeff" else text

"""Definitional references that the tests hold the library's engines to.

They scan members, sweep to a fixpoint or enumerate every outcome, so they
are slow, and the costly ones are guarded to small fixtures.
`local_lower_bound` reads e-peel's own bound array.  `kd_levels_reference`
peels the (k,d) levels one at a time, each by `peel_level`, where
`kd_decompose` peels groups of them in lockstep.  `parse_hg_reference`
splits .hg text line by line and finds duplicate rows by `np.lexsort`, where
`parse_hg` tokenizes slices of text and sorts packed keys.  No library route
runs them, and `hypercore` imports nothing from here.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, count, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from hypercore.diffusion import _GAMMA, _M1, _M2, _MASK, _run_key, check_beta
from hypercore.kdcore import KDCoreResult, _distinct
from hypercore.localcore import local_core
from hypercore.model import (BuildReport, GuardError, Hypergraph, InputError,
                             SingletonPolicy, _ranges, _rows)
from hypercore.peel import CoreAssignment, _lower_bounds

ORACLE_NODE_GUARD = 200
ENUMERATION_ATTEMPT_GUARD = 20


def edges(H: Hypergraph) -> list[tuple[int, ...]]:
    """H's hyperedges as ascending tuples of node ids, cut from its edge CSR."""
    flat, offsets = H.edge_flat.tolist(), H.edge_offsets.tolist()
    return [tuple(flat[a:b]) for a, b in zip(offsets, offsets[1:])]


def hypergraph(edges: Sequence[Sequence[int]], labels: list[str]) -> Hypergraph:
    """The Hypergraph on these labels whose hyperedges are these id tuples."""
    return Hypergraph([v for e in edges for v in e], [len(e) for e in edges], labels)


def incident_edges(H: Hypergraph, v: int) -> list[int]:
    """Ids of the hyperedges that hold v, ascending."""
    return H.inc_flat[H.inc_offsets[v] : H.inc_offsets[v + 1]].tolist()


def level_set(res: CoreAssignment, k: int) -> set[int]:
    """The nodes whose core number is at least k."""
    return {v for v, c in enumerate(res.core) if c >= k}


def level_dict(res: KDCoreResult, k: int) -> dict[int, int]:
    """Level k of a (k,d) result as node id -> d_k(v), in ascending id order;
    empty outside [1, kmax]."""
    if k not in res.levels:
        return {}
    return dict(zip(np.flatnonzero(res.core >= k).tolist(), res.levels[k].tolist(), strict=True))


def core_members(res: KDCoreResult, k: int, d: int) -> set[int]:
    """The (k,d)-core: the nodes of level k with d_k(v) >= d."""
    return {v for v, dv in level_dict(res, k).items() if dv >= d}


# -- .hg text ---------------------------------------------------------------


def build_reference(
    edge_lists: Iterable[Sequence[str]],
    policy: SingletonPolicy = SingletonPolicy.REJECT,
) -> tuple[Hypergraph, BuildReport]:
    """`build` with duplicate rows found per width by a stable `np.lexsort`
    of the rows, so a repeat sorts right after its first copy."""
    intern: defaultdict[str, int] = defaultdict(count().__next__)
    flat: list[int] = []
    sizes: list[int] = []
    for members in edge_lists:
        flat.extend(map(intern.__getitem__, members))
        sizes.append(len(members))
    if not sizes:
        raise InputError("no hyperedges given")
    labels = list(intern)

    n, m = len(labels), len(sizes)
    key = np.repeat(np.arange(m), sizes) * n + np.fromiter(flat, dtype=np.int64, count=len(flat))
    key.sort()
    row, ids = np.divmod(key[np.diff(key, prepend=-1) != 0], max(n, 1))
    cards = np.bincount(row, minlength=m)
    offsets = np.cumsum(cards) - cards

    short = np.flatnonzero(cards < (1 if policy is SingletonPolicy.DROP else 2))
    if short.size:
        idx = int(short[0])
        if not cards[idx]:
            raise InputError(f"edge {idx}: empty hyperedge")
        tokens = [labels[ids[offsets[idx]]]] * sizes[idx]
        raise InputError(f"edge {idx}: singleton hyperedge {tokens!r}")
    report = BuildReport(singleton_edges=np.flatnonzero(cards == 1).tolist())

    keep = cards >= 2
    for c in np.flatnonzero(np.bincount(cards[keep])).tolist():
        idx = np.flatnonzero(cards == c)
        block = ids[offsets[idx, None] + np.arange(c)]
        order = np.lexsort(block.T[::-1])
        repeat = (block[order[1:]] == block[order[:-1]]).all(axis=1)
        keep[idx[order[1:][repeat]]] = False
    report.duplicate_edges = np.flatnonzero(~keep & (cards >= 2)).tolist()
    edge_flat, cards = ids[np.repeat(keep, cards)], cards[keep]

    if report.singleton_edges:
        used = np.bincount(edge_flat, minlength=n) > 0
        report.isolated_labels = [labels[v] for v in np.flatnonzero(~used).tolist()]
        labels = [labels[v] for v in np.flatnonzero(used).tolist()]
        edge_flat = (np.cumsum(used) - 1)[edge_flat]
    return Hypergraph(edge_flat, cards, labels), report


def _edge_tokens(lines: Iterable[str]) -> Iterator[list[str]]:
    """Each hyperedge line's tokens; a blank line, or one whose first token
    starts with '#', is skipped."""
    for tokens in map(str.split, lines):
        if tokens and tokens[0][0] != "#":
            yield tokens


def parse_hg_reference(
    text: str, policy: SingletonPolicy = SingletonPolicy.REJECT
) -> tuple[Hypergraph, BuildReport]:
    """`parse_hg` one line at a time: `str.splitlines`, then `str.split` per
    line into `build_reference`; an error's edge index is turned into its
    line number by finding that hyperedge line again."""
    text = text.removeprefix("\ufeff")
    edges = _edge_tokens(text.splitlines())
    first = next(edges, None)
    if first is None:
        raise InputError("no hyperedges in input")
    try:
        return build_reference(chain((first,), edges), policy)
    except InputError as exc:
        head, _, rest = str(exc).partition(": ")
        if head.startswith("edge "):
            line_nos = (ln for ln, line in enumerate(text.splitlines(), start=1)
                        if any(_edge_tokens((line,))))
            ln = next(islice(line_nos, int(head[5:]), None))
            raise InputError(f"line {ln}: {rest}") from None
        raise


# -- local-core ------------------------------------------------------------


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


# -- peel ------------------------------------------------------------------


def local_lower_bound(H: Hypergraph, v: int) -> int:
    """max(|e_m(v)| - 1, min_u |N(u)|): guaranteed <= c(v)."""
    v = H._check_node(v)
    return int(_lower_bounds(H)[v])


# -- (k,d)-cores and neighborhood cores ------------------------------------


def kd_fixpoint_oracle(H: Hypergraph, k: int, d: int) -> set[int]:
    """Definitional (k,d)-core: delete nodes violating either threshold in the
    strong residual until fixpoint.  Maximal by construction."""
    alive = [True] * H.n
    members = edges(H)
    changed = True
    while changed:
        changed = False
        for v in range(H.n):
            if not alive[v]:
                continue
            if (len(H.residual_neighbors(v, alive)) < k
                    or sum(all(alive[u] for u in members[ei])
                           for ei in incident_edges(H, v)) < d):
                alive[v] = False
                changed = True
    return {v for v in range(H.n) if alive[v]}


def kd_levels_reference(H: Hypergraph) -> KDCoreResult:
    """`kd_decompose` one level at a time: `peel_level` on V_k and E_k as
    masks over H's own ids, each level's d_k in ascending node id order."""
    core = np.array(local_core(H).core, dtype=np.int64)
    kmax = int(core.max(initial=0))
    low = np.minimum.reduceat(core[H.edge_flat], H.edge_offsets[:-1])
    work = {"rounds": 0, "neighbor_recounts": 0}
    levels = {}
    for k in range(1, kmax + 1):
        nodes = core >= k
        dk = peel_level(H, k, nodes.copy(), low >= k, work)
        levels[k] = dk[nodes]
    return KDCoreResult(kmax, core, levels, work)


def has_neighbors(H: Hypergraph, us: np.ndarray, k: int, live: np.ndarray,
                  work: dict[str, int]) -> np.ndarray:
    """Whether each node of us has k neighbors through the hyperedges of
    live; a node with a live one of more than k members is not counted."""
    e, count = _rows(H.inc_offsets, H.inc_flat, us)
    owner = np.repeat(np.arange(us.size), count)
    keep = live[e]
    e, owner = e[keep], owner[keep]
    starts = H.edge_offsets[e]
    card = H.edge_offsets[e + 1] - starts
    passed = np.zeros(us.size, dtype=bool)
    passed[owner[card > k]] = True
    keep = ~passed[owner]
    starts, card, owner = starts[keep], card[keep], owner[keep]
    work["neighbor_recounts"] += us.size - int(passed.sum())
    member, owner = H.edge_flat[_ranges(starts, card)], np.repeat(owner, card)
    b = max(H.n, H.edge_offsets.size - 1).bit_length()
    keys = np.sort(((owner << b) | member)[member != us[owner]])
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    distinct = keys[first]
    return passed | (np.bincount(distinct >> b, minlength=us.size) >= k)


def peel_level(H: Hypergraph, k: int, alive: np.ndarray, live: np.ndarray,
               work: dict[str, int]) -> np.ndarray:
    """d_k(v) at each node v of V_k, the nodes flagged in alive, by the
    degree peel of E_k, the hyperedges flagged in live; both masks are
    cleared as the peel goes, and the entries outside V_k are 0."""
    n, m = H.n, live.size
    deg = np.bincount(_rows(H.edge_offsets, H.edge_flat, np.flatnonzero(live))[0], minlength=n)
    dk = np.zeros(n, dtype=np.int64)
    d, left, touched = 0, int(alive.sum()), np.empty(0, dtype=np.int64)
    while left:
        at_d = deg[touched] <= d
        out = touched[at_d]
        if k > 1 and not at_d.all():
            checked = touched[~at_d]
            out = np.concatenate([out, checked[~has_neighbors(H, checked, k, live, work)]])
        if not out.size:
            # nothing left at d: rise to the least live degree
            d = int(deg[alive].min())
            out = np.flatnonzero(alive & (deg == d))
        work["rounds"] += 1
        dk[out], alive[out] = d, False
        left -= out.size
        e = _rows(H.inc_offsets, H.inc_flat, out)[0]
        e = _distinct(e[live[e]], m)
        live[e] = False
        member = _rows(H.edge_offsets, H.edge_flat, e)[0]
        np.subtract.at(deg, member, 1)
        touched = _distinct(member[alive[member]], n)
    return dk


def naive_core_oracle(H: Hypergraph) -> CoreAssignment:
    """Ground-truth neighborhood core numbers straight from the definition.

    c(v) is the number of nested k-cores that hold v, i.e. the largest k at
    which v survives in `oracle_k_core_sets`.
    """
    if H.n > ORACLE_NODE_GUARD:
        raise GuardError(f"oracle guard: {H.n} nodes > {ORACLE_NODE_GUARD}")
    sets = oracle_k_core_sets(H)
    return CoreAssignment(core=[sum(v in s for s in sets) for v in range(H.n)], counters={})


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


# -- SIR -------------------------------------------------------------------


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer of a 64-bit word."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def attempt_draw(rng_seed: int, u: int, v: int) -> int:
    """The 64-bit draw of the attempt u -> v, which `sir_run` and
    `diffusion._bulk_step` inline."""
    k_u = splitmix64((_run_key(rng_seed) + (u + 1) * _GAMMA) & _MASK)
    return splitmix64((k_u + (v + 1) * _GAMMA) & _MASK)


def sir_expected_spread(H: Hypergraph, seed: int, beta: Fraction) -> Fraction:
    """Exact expected spread by recursion over every attempt outcome.

    Guarded by the total number of potential directed contacts; only tiny
    fixtures are enumerable."""
    check_beta(beta)
    beta = Fraction(beta)
    seed = H._check_node(seed)
    potential = sum(H.neighbor_count(v) for v in range(H.n))
    if potential > ENUMERATION_ATTEMPT_GUARD:
        raise GuardError(
            f"enumeration guard: {potential} potential attempts > {ENUMERATION_ATTEMPT_GUARD}")

    def recurse(frontier: tuple[int, ...], infected: frozenset[int]) -> Fraction:
        if not frontier:
            return Fraction(len(infected))
        attempts = [
            (u, v)
            for u in sorted(frontier)
            for v in H.neighbors(u)
            if v not in infected
        ]

        def branch(i: int, newly: frozenset[int]) -> Fraction:
            if i == len(attempts):
                return recurse(tuple(sorted(newly)), infected | newly)
            u, v = attempts[i]
            if v in newly:  # already infected this step by an earlier attacker
                return branch(i + 1, newly)
            return beta * branch(i + 1, newly | {v}) + (1 - beta) * branch(i + 1, newly)

        return branch(0, frozenset())

    return recurse((seed,), frozenset({seed}))

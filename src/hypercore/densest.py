"""Volume-densest subhypergraph discovery.

Three routes: a greedy peel by least residual neighbor count, which is
Peel's deletion order, with a provable approximation factor; an exact
method; and subset enumeration, `--method brute`.  The exact method
runs Dinkelbach iteration over an integer max-flow probe on Goldberg's
closure network when no node pair is shared by two hyperedges
(d_pair = 1).  The probe runs Dinic's algorithm on paired arc lists built
from the edge CSR and reads both its witness S and the witness's objective g
off the last BFS of the flow; the next density is g / |S|, so no member is
scanned on the route.  With shared pairs the exact method is the
enumeration.

All densities are exact rationals.  The flow probe scales every capacity by
the denominator of the probed density so the network stays pure-integer;
two distinct subset densities can lie within 1/n^2 of each other, which
makes floating point unsafe here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from .model import GuardError, Hypergraph, InputError, member_lists
# peel is unused here but stays bound: perfbench/tracing.py patches densest.peel
from .peel import _peel, peel

BRUTE_FORCE_NODE_GUARD = 20


@dataclass
class DensestResult:
    nodes: set[int]
    density: Fraction
    method: str  # "greedy" | "exact" | "brute"
    factor: Fraction
    # (lower, upper) bounds on the optimum; the exact method closes it to
    # (density, density)
    bracket: tuple[Fraction, Fraction] | None = None
    # max-flow probes the exact method solved
    probes: int = 0


def volume_density(H: Hypergraph, nodes: Iterable[int]) -> Fraction:
    """Average neighbor count per node in the strongly induced H[S]."""
    S = {H._check_node(v) for v in nodes}
    if not S:
        raise InputError("volume density of the empty set is undefined")
    in_S = [False] * H.n
    for v in S:
        in_S[v] = True
    total = sum(len(H.residual_neighbors(v, in_S)) for v in S)
    return Fraction(total, len(S))


def _node_count(H: Hypergraph) -> int:
    """H.n, refusing the empty hypergraph: it has no non-empty subset to rate."""
    if H.n == 0:
        raise InputError("the empty hypergraph has no densest subhypergraph")
    return H.n


def guarantee_factor(H: Hypergraph) -> Fraction:
    """d_pair * (d_card - 2) + 2 for this hypergraph (2 for plain graphs)."""
    _node_count(H)
    d_card = int(np.diff(H.edge_offsets).max())
    return Fraction(H.d_pair * (d_card - 2) + 2)


def greedy_densest(H: Hypergraph) -> DensestResult:
    """Delete the node of least (residual neighbor count, id) until none is
    left, as Peel does, and keep the densest residual; density >= optimum /
    guarantee_factor(H).

    A hyperedge dies with its first deleted member and a pair group with
    its last holder; the residual after t deletions holds the groups that
    die at t or later, and the first densest wins.  A hyperedge's death ends
    |e|(|e| - 1) rows; a shared group adds -1 per holder and +1 at its last."""
    n = _node_count(H)
    order = _peel(H, np.diff(H.nbr_offsets).tolist(), bounded=False)[1]
    pos = np.argsort(order)  # node -> its position in the deletion order
    cards = np.diff(H.edge_offsets)
    edge_death = np.minimum.reduceat(pos[H.edge_flat], H.edge_offsets[:-1])
    holder_death = edge_death[H.shared_holder]
    group_death = np.maximum.reduceat(holder_death, np.cumsum(H.shared_count) - H.shared_count)
    # groups dying at each position; float64 sums are exact below the pair-row guard
    died = np.bincount(edge_death, cards * (cards - 1), minlength=n).astype(np.int64)
    died += np.bincount(group_death, minlength=n) - np.bincount(holder_death, minlength=n)
    # total[t]: residual neighbor counts summed over the nodes left after t deletions
    total = np.cumsum(died[::-1])[::-1].tolist()
    best = 0
    for t in range(1, n):
        if total[t] * (n - best) > total[best] * (n - t):
            best = t
    return DensestResult(set(order[best:]), Fraction(total[best], n - best),
                         "greedy", guarantee_factor(H))


def brute_force_densest(H: Hypergraph) -> DensestResult:
    """Exact optimum by enumerating every non-empty node subset (guarded);
    ties go to the first optimal bitmask."""
    n = _node_count(H)
    if n > BRUTE_FORCE_NODE_GUARD:
        raise GuardError(f"enumeration guard: {n} nodes > {BRUTE_FORCE_NODE_GUARD}")
    edge_masks = [sum(1 << v for v in e) for e in member_lists(H)]
    best_density = Fraction(-1)
    best_mask = 0
    for mask in range(1, 1 << n):
        nbr_masks = [0] * n
        for em in edge_masks:
            if em & ~mask == 0:
                m = em
                while m:
                    v = (m & -m).bit_length() - 1
                    nbr_masks[v] |= em
                    m &= m - 1
        total = 0
        for v in range(n):
            if nbr_masks[v]:
                total += bin(nbr_masks[v] & ~(1 << v)).count("1")
        density = Fraction(total, bin(mask).count("1"))
        if density > best_density:
            best_density = density
            best_mask = mask
    nodes = {v for v in range(n) if best_mask >> v & 1}
    return DensestResult(nodes, best_density, "brute", Fraction(1))


# -- exact algorithm: Dinkelbach iteration over an integer max-flow --------


def _flow_probe(H: Hypergraph, eta: Fraction) -> tuple[int, set[int]]:
    """Solve Goldberg's closure network at eta = p/q exactly by Dinic's
    algorithm and return (g, S) for its smallest min cut.

    Vertices: 0 = source, 1 = sink, 2..n+1 the nodes, n+2..n+m+1 the
    hyperedges.  The arcs are source -> hyperedge e at |e|(|e|-1) q, e -> each
    member at total + 1 (more than the cut around the source alone), and
    node -> sink at p, where total = sum |e|(|e|-1) q.  Arc 2i is the i-th of
    them and arc 2i + 1 its reverse, so the reverse of arc a is a ^ 1; `arcs`
    lists the arcs leaving each vertex, a CSR over `first`.  Capacities are
    Python ints, so nothing overflows.

    S is the set of nodes the last, failed BFS still reaches: the node part
    of the min cut's source side, the smallest one there is.  It reaches a
    hyperedge vertex exactly when it reaches all of its members, so
    g = sum over e inside S of |e|(|e|-1), and g > eta |S| exactly when some
    subset T has g(T) > eta |T|.  g counts each neighbor pair of the strongly
    induced H[S] once per hyperedge that holds it, so when no node pair is
    shared (d_pair = 1) g / |S| is the volume density of S and the probe is
    exact both ways.
    """
    n, m = H.n, len(H.edge_offsets) - 1
    p, q = eta.numerator, eta.denominator
    cards = np.diff(H.edge_offsets)
    weights = (cards * (cards - 1)).tolist()
    total = sum(weights) * q
    hyper = np.arange(n + 2, n + m + 2)
    # the forward arcs, source -> e, e -> member and node -> sink, in order
    tail = np.concatenate([np.zeros(m, np.int64), np.repeat(hyper, cards), np.arange(2, n + 2)])
    head = np.concatenate([hyper, H.edge_flat + 2, np.ones(n, np.int64)])
    frm = np.stack([tail, head], axis=1).ravel()  # arc 2i + 1 runs head -> tail
    to = np.stack([head, tail], axis=1).ravel().tolist()
    arcs = np.argsort(frm, kind="stable").tolist()
    first = [0] + np.cumsum(np.bincount(frm, minlength=n + m + 2)).tolist()
    cap = [0] * len(to)
    cap[::2] = [w * q for w in weights] + [total + 1] * len(H.edge_flat) + [p] * n
    while True:
        level = [-1] * (n + m + 2)
        level[0] = 0
        reached = [0]
        for u in reached:
            for a in arcs[first[u] : first[u + 1]]:
                if cap[a] > 0 and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    reached.append(to[a])
        if level[1] < 0:
            break
        # push flow along one path of the level graph at a time; the path is
        # kept in a list, not on the call stack, as it can run the length of
        # the network, and it[u] is the first arc of u not yet found dead
        it = first[:]
        path: list[int] = []  # arcs from the source to u
        u = 0
        while True:
            if u == 1:
                f = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= f
                    cap[a ^ 1] += f
                path, u = [], 0
            i, end, up = it[u], first[u + 1], level[u] + 1
            while i < end and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == up):
                i += 1
            it[u] = i
            if i < end:
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:  # dead end: back to the tail of the last arc, which is skipped
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:  # the phase is blocked
                break
    g = sum(w for w, lev in zip(weights, level[n + 2 :]) if lev >= 0)
    return g, {v for v in range(n) if level[2 + v] >= 0}


def exact_densest(H: Hypergraph) -> DensestResult:
    """Dinkelbach iteration on the density: start from all nodes, at
    eta = len(nbr_flat) / n, probe at the current eta, and move to the
    probe's witness S at eta = g / |S|, both read off its cut, while
    g > eta |S|.  No member is scanned to rate a witness.  The first negative
    probe proves eta optimal, so the result carries the closed bracket
    (eta, eta).  eta only rises and there are finitely many subsets, so the
    loop ends.

    The probe is exact only when no node pair is shared by two hyperedges.
    Otherwise the answer is the subset-enumeration optimum, with no probe,
    and an input of more than 20 nodes is refused by its guard."""
    n = _node_count(H)
    if H.d_pair > 1:
        res = brute_force_densest(H)
        return replace(res, method="exact", bracket=(res.density, res.density))
    best, eta, probes = set(range(n)), Fraction(len(H.nbr_flat), n), 0
    while True:
        g, nodes = _flow_probe(H, eta)
        probes += 1
        if g <= eta * len(nodes):
            break
        best, eta = nodes, Fraction(g, len(nodes))
    return DensestResult(best, eta, "exact", Fraction(1), bracket=(eta, eta), probes=probes)

"""Volume-densest subhypergraph discovery.

Three routes: a greedy peel by least residual neighbor count, which is
Peel's deletion order, with a provable approximation factor; an exact
method; and subset enumeration, `--method brute`.  The exact method
runs Dinkelbach iteration over an integer max-flow probe on Goldberg's
closure network when no node pair is shared by two hyperedges
(d_pair = 1), reading each witness off the last BFS of the flow; with
shared pairs it is the enumeration.

All densities are exact rationals.  The flow probe scales every capacity by
the denominator of the probed density so the network stays pure-integer;
two distinct subset densities can lie within 1/n^2 of each other, which
makes floating point unsafe here.
"""

from __future__ import annotations

from collections import deque
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
    S = set(nodes)
    if not S:
        raise InputError("volume density of the empty set is undefined")
    in_S = [False] * H.n
    for v in S:
        H._check_node(v)
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

    Each residual's volume is read off the pair table.  A hyperedge dies
    with its first deleted member, and a pair group with the last live
    hyperedge that holds it, so the residual after t deletions holds the
    groups that die at position t or later.  The first densest residual
    wins."""
    n = _node_count(H)
    order = _peel(H, np.diff(H.nbr_offsets).tolist(), bounded=False)[1]
    pos = np.argsort(order)  # node -> its position in the deletion order
    edge_death = np.minimum.reduceat(pos[H.edge_flat], H.edge_offsets[:-1])
    group_death = np.maximum.reduceat(edge_death[H.pair_edge], H.pair_starts)
    # total[t]: residual neighbor counts summed over the nodes left after t deletions
    total = np.cumsum(np.bincount(group_death, minlength=n)[::-1])[::-1].tolist()
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


class _Dinic:
    """Exact max-flow on integer capacities (Python ints, so no overflow)."""

    def __init__(self, n: int):
        self.n = n
        self.graph: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1])

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v, cap, _ in self.graph[u]:
                if cap > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _dfs(self, s: int, t: int) -> int:
        """Push flow along one s-t path of the level graph and return the
        amount, or 0 once the phase is blocked.  The path is kept in a list,
        not on the call stack: it can run the length of the network."""
        graph, level, it = self.graph, self.level, self.it
        path: list[list[int]] = []  # edges from s to u
        u = s
        while u != t:
            adj, i = graph[u], it[u]
            while i < len(adj) and not (adj[i][1] > 0 and level[adj[i][0]] == level[u] + 1):
                i += 1
            it[u] = i
            if i < len(adj):
                path.append(adj[i])
                u = adj[i][0]
            elif not path:
                return 0
            else:  # dead end: back to the tail of the last edge, which is skipped
                edge = path.pop()
                u = graph[edge[0]][edge[2]][0]
                it[u] += 1
        f = min(edge[1] for edge in path)
        for edge in path:
            edge[1] -= f
            graph[edge[0]][edge[2]][1] += f
        return f

    def max_flow(self, s: int, t: int) -> int:
        """The max-flow value.  The last, failed BFS leaves level[x] >= 0 on
        exactly the nodes still reachable from s in the residual network:
        the source side of the minimum cut, the smallest one there is."""
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                f = self._dfs(s, t)
                if f == 0:
                    break
                flow += f
        return flow


def _flow_probe(H: Hypergraph, eta: Fraction) -> tuple[bool, set[int]]:
    """Solve Goldberg's closure network at eta = p/q exactly.

    Returns (denser_exists, witness).  The arcs are source -> hyperedge e at
    |e|(|e|-1) q, e -> each member at total + 1 (more than the cut around the
    source alone), and node -> sink at p, where total = sum |e|(|e|-1) q.
    The max-flow is below total exactly when some S has
    g(S) = sum over e inside S of |e|(|e|-1) > eta |S|; the witness is the
    node part of the min cut's source side, read off the last BFS, and its g
    exceeds eta times its size.  g counts each neighbor pair of the strongly
    induced H[S] once per hyperedge that holds it, so when no node pair is
    shared (d_pair = 1) g is the volume objective and the probe is exact both
    ways.
    """
    n = H.n
    q = eta.denominator
    p = eta.numerator
    # vertex ids: 0 = source, 1 = sink, 2..n+1 nodes, n+2..n+m+1 hyperedges
    edges = member_lists(H)
    net = _Dinic(n + len(edges) + 2)
    weights = [len(e) * (len(e) - 1) * q for e in edges]
    total = sum(weights)
    for ei, e in enumerate(edges):
        net.add_edge(0, n + 2 + ei, weights[ei])
        for v in e:
            net.add_edge(n + 2 + ei, 2 + v, total + 1)
    for v in range(n):
        net.add_edge(2 + v, 1, p)
    flow = net.max_flow(0, 1)
    return flow < total, {v for v in range(n) if net.level[2 + v] >= 0}


def exact_densest(H: Hypergraph) -> DensestResult:
    """Dinkelbach iteration on the density: start from all nodes, probe at
    the current density eta, and take the probe's min-cut witness, which is
    strictly denser, as the next candidate.  The first negative probe proves
    eta optimal, so the result carries the closed bracket (eta, eta).  eta
    only rises and there are finitely many subsets, so the loop ends.

    The probe is exact only when no node pair is shared by two hyperedges.
    Otherwise the answer is the subset-enumeration optimum, with no probe,
    and an input of more than 20 nodes is refused by its guard."""
    n = _node_count(H)
    if H.d_pair > 1:
        res = brute_force_densest(H)
        return replace(res, method="exact", bracket=(res.density, res.density))
    best = set(range(n))
    eta = volume_density(H, best)
    probes = 0
    while True:
        denser, nodes = _flow_probe(H, eta)
        probes += 1
        if not denser:
            break
        best = nodes
        eta = volume_density(H, best)
    return DensestResult(best, eta, "exact", Fraction(1), bracket=(eta, eta), probes=probes)

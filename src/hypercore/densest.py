"""Volume-densest subhypergraph discovery.

Three routes: a greedy peel by least residual neighbor count, which is core
order, with a provable approximation factor, an exact method (binary search
on the density with an integer max-flow feasibility probe, whose negative answers are confirmed by
enumeration whenever hyperedges share node pairs), and a subset-enumeration
oracle for testing.

All densities are exact rationals.  The flow probe scales every capacity by
the denominator of the probed density so the network stays pure-integer;
the density gap 1/(2 n^2) between distinct densities makes floating point
unsafe here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .model import GuardError, Hypergraph, InputError, Residual
# peel is unused here but stays bound: perfbench/tracing.py patches densest.peel
from .peel import BucketQueue, peel

BRUTE_FORCE_NODE_GUARD = 20


@dataclass
class DensestResult:
    nodes: set[int]
    density: Fraction
    method: str  # "greedy" | "exact" | "brute"
    factor: Fraction
    # final (lower, upper) bracket of the exact method's binary search
    bracket: tuple[Fraction, Fraction] | None = None


def volume_density(H: Hypergraph, nodes: Iterable[int]) -> Fraction:
    """Average neighbor count per node in the strongly induced H[S]."""
    S = set(nodes)
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
    d_card = max(len(e) for e in H.edges)
    return Fraction(H.d_pair * (d_card - 2) + 2)


def greedy_densest(H: Hypergraph) -> DensestResult:
    """Peel in (core number, residual neighbor count, node id) order and keep
    the densest prefix; density >= optimum / guarantee_factor(H).

    A bucket queue keyed by residual neighbor count pops the least
    (count, id) until it is empty, which is core order.  Once every node of
    core below c is deleted and one of core c remains, the least count is at
    most c, or the residual would be a (c+1)-core; a node of core above c
    still has at least c+1 residual neighbors, because every hyperedge of the
    (c+1)-core is live.  So the least count lies in the lowest remaining core
    group, and ties go to the lowest id."""
    n = _node_count(H)
    R = Residual(H)
    B = BucketQueue(n)
    for v in range(n):
        B.put(v, H.neighbor_count(v))
    total = H.nbr_offsets[-1]  # sum of the residual neighbor counts
    best_total, best_alive = total, n
    deleted: list[int] = []  # deletion order
    best_deleted = 0
    while (popped := B.pop_min()) is not None:
        key, v = popped
        deleted.append(v)
        total -= key
        for u in R.delete(v):
            count = len(R.neighbors(u))
            total += count - B.key[u]
            B.put(u, count)
        alive = n - len(deleted)
        if alive and total * best_alive > best_total * alive:
            best_total, best_alive, best_deleted = total, alive, len(deleted)
    return DensestResult(set(deleted[best_deleted:]), Fraction(best_total, best_alive),
                         "greedy", guarantee_factor(H))


def _enumerate_optimum(H: Hypergraph) -> tuple[Fraction, int]:
    """(max density, witness bitmask) over every non-empty node subset."""
    n = _node_count(H)
    if n > BRUTE_FORCE_NODE_GUARD:
        raise GuardError(f"enumeration guard: {n} nodes > {BRUTE_FORCE_NODE_GUARD}")
    edge_masks = [sum(1 << v for v in e) for e in H.edges]
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
    return best_density, best_mask


def brute_force_densest(H: Hypergraph) -> DensestResult:
    """Exact optimum by enumerating every non-empty node subset (guarded)."""
    best_density, best_mask = _enumerate_optimum(H)
    nodes = {v for v in range(H.n) if best_mask >> v & 1}
    return DensestResult(nodes, best_density, "brute", Fraction(1))


# -- exact algorithm: binary search over an integer max-flow ---------------


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
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                f = self._dfs(s, t)
                if f == 0:
                    break
                flow += f
        return flow

    def min_cut_source_side(self, s: int) -> set[int]:
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for v, cap, _ in self.graph[u]:
                if cap > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen


def _flow_probe(H: Hypergraph, eta: Fraction) -> tuple[bool, set[int]]:
    """Build the density-feasibility network at eta and solve it exactly.

    Returns (denser_exists, source_side_nodes).
    The probe is one-sided in general: max-flow < sum of all neighbor counts
    certifies that some subset beats density eta (the cut identity counts
    each lost neighbor at least once, so the cut objective never exceeds the
    true one).  The converse holds exactly when no node pair is shared by
    two hyperedges; with shared pairs the edge-layer capacities charge a
    lost neighbor once per shared hyperedge and the probe can miss denser
    subsets, so callers must confirm negative answers independently.
    """
    n = H.n
    m = len(H.edges)
    q = eta.denominator
    p = eta.numerator
    # vertex ids: 0 = source, 1 = sink, 2..n+1 nodes, n+2..n+m+1 edge layer
    net = _Dinic(n + m + 2)
    s, t = 0, 1
    total = 0
    finite = 0
    for v in range(n):
        cap = H.neighbor_count(v) * q
        net.add_edge(s, 2 + v, cap)
        total += cap
        finite += cap
        net.add_edge(2 + v, t, p)
        finite += p
    for ei, e in enumerate(H.edges):
        cap = (len(e) - 1) * q
        for v in e:
            net.add_edge(2 + v, n + 2 + ei, cap)
            finite += cap
    inf = finite + 1
    for ei, e in enumerate(H.edges):
        for v in e:
            net.add_edge(n + 2 + ei, 2 + v, inf)
    flow = net.max_flow(s, t)
    side = net.min_cut_source_side(s)
    nodes = {v for v in range(n) if 2 + v in side}
    return flow < total, nodes


def exact_densest(H: Hypergraph) -> DensestResult:
    """Binary search on the density value; each probe answers "does a denser
    subset exist", and the witness set becomes the candidate.  Distinct
    densities differ by at least 1/(2 n^2), so once the bracket is narrower
    than that the last feasible candidate is optimal.

    Each probe asks the max-flow network first.  A positive flow answer is
    always trustworthy and supplies the min cut's node side as the witness.
    A negative answer is only conclusive when no node pair is shared by two
    hyperedges; otherwise it is confirmed against the subset-enumeration
    optimum, because the flow network overcharges neighbors reachable
    through several hyperedges and can miss denser subsets.  The bracket
    cannot close without a negative answer, so with shared pairs that
    optimum is computed, or refused by the brute-force oracle's node guard,
    before the first probe."""
    n = _node_count(H)
    total_nbrs = sum(H.neighbor_count(v) for v in range(n))
    lower = Fraction(total_nbrs, n)
    upper = Fraction(total_nbrs)
    delta = Fraction(1, 2 * n * n)
    best = set(range(n))
    fallback: tuple[Fraction, set[int]] | None = None
    if H.d_pair > 1:
        density, mask = _enumerate_optimum(H)
        fallback = (density, {v for v in range(n) if mask >> v & 1})
    while upper - lower >= delta:
        eta = (lower + upper) / 2
        denser, nodes = _flow_probe(H, eta)
        if not denser and fallback is not None and fallback[0] > eta:
            denser, nodes = True, fallback[1]
        if denser:
            lower = eta
            best = nodes
        else:
            upper = eta
    return DensestResult(best, volume_density(H, best), "exact", Fraction(1),
                         bracket=(lower, upper))

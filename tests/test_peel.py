import sys
from collections import Counter
from fractions import Fraction

import pytest

from hypercore import (
    e_peel,
    greedy_densest,
    peel,
    random_hypergraph,
)
from hypercore.model import Residual
from conftest import by_label, hg, scan_pool, with_wide_edge
from oracles import edges, hypergraph, level_set, local_lower_bound, naive_core_oracle


def test_single_pair_edge():
    H = hg("a b\n")
    assert peel(H).core == [1, 1]


def test_single_triple(single_triple):
    assert peel(single_triple).core == [2, 2, 2]


def test_five_node_fixture_all_two(fig_five):
    assert peel(fig_five).core == [2] * 5


def test_lower_bound_single_big_edge():
    H = hg("a b c d e\n")
    assert all(local_lower_bound(H, v) == 4 for v in range(5))


def test_lower_bound_fixture(fig_five):
    assert local_lower_bound(fig_five, fig_five.label_to_id["b"]) == 2


def test_lower_bound_star():
    H = hg("x a\nx b\nx c\n")
    x = H.label_to_id["x"]
    assert local_lower_bound(H, x) == 1
    assert peel(H).core[x] == 1


def test_lower_bound_below_core_everywhere():
    for seed in range(10):
        H = random_hypergraph(12, 18, 2, 4, seed)
        core = peel(H).core
        for v in range(H.n):
            assert local_lower_bound(H, v) <= core[v] <= H.neighbor_count(v)


def test_epeel_matches_peel_on_random_instances():
    for seed in range(25):
        H = random_hypergraph(5 + seed, 2 * seed + 4, 2, min(4, 5 + seed), seed)
        assert e_peel(H).core == peel(H).core


def test_counter_never_exceeds_peel():
    for seed in range(25):
        H = random_hypergraph(5 + seed, 2 * seed + 4, 2, min(4, 5 + seed), seed)
        assert (e_peel(H).counters["neighborhood_recomputations"]
                <= peel(H).counters["neighborhood_recomputations"])


def test_counter_strictly_smaller_on_deferring_fixture():
    # pendant node x beside a clique-like block whose lower bounds defer updates
    H = hg("x a\na b c\na b d\na c d\nb c d\n")
    p, e = peel(H), e_peel(H)
    assert e.core == p.core
    assert (e.counters["neighborhood_recomputations"]
            < p.counters["neighborhood_recomputations"])


def test_counters_on_five_node_fixture(fig_five):
    # pinned work counts: the shared peel loop must keep both routes' counters
    assert peel(fig_five).counters == {"neighborhood_recomputations": 16, "cell_updates": 6}
    assert e_peel(fig_five).counters == {"neighborhood_recomputations": 11, "cell_updates": 6}


def test_counters_on_deferring_fixture():
    H = hg("x a\na b c\na b d\na c d\nb c d\n")
    assert peel(H).counters == {"neighborhood_recomputations": 16, "cell_updates": 6}
    assert e_peel(H).counters == {"neighborhood_recomputations": 15, "cell_updates": 10}


# Larger inputs with shared node pairs (d_pair > 1), one with a wide edge:
# (peel counters, e-peel counters, labels greedy drops or keeps, its density).
PINNED_WORK = [
    (lambda: random_hypergraph(80, 110, 2, 4, 21), (363, 203), (355, 275),
     ("drops", {"11", "15", "23", "26", "29", "32", "42", "72"}), Fraction(307, 36)),
    (lambda: random_hypergraph(100, 140, 2, 4, 23), (473, 275), (468, 369),
     ("drops", {"19", "24", "31", "51", "59", "64", "99"}), Fraction(212, 23)),
    (lambda: with_wide_edge(random_hypergraph(50, 60, 2, 4, 25), 25), (231, 131), (183, 133),
     ("keeps", {"0", "1", "3", "5", "17", "20", "33", "42", "43", "48", "49"}), Fraction(10)),
]


@pytest.mark.parametrize("make, peel_work, epeel_work, greedy_nodes, greedy_density",
                         PINNED_WORK, ids=["shared-pairs-a", "shared-pairs-b", "wide-edge"])
def test_work_pinned_on_larger_inputs(make, peel_work, epeel_work, greedy_nodes, greedy_density):
    H = make()
    assert H.d_pair > 1
    for route, (recomputations, updates) in ((peel, peel_work), (e_peel, epeel_work)):
        assert route(H).counters == {"neighborhood_recomputations": recomputations,
                                     "cell_updates": updates}
    g = greedy_densest(H)
    kept = {H.labels[v] for v in g.nodes}
    side, labels = greedy_nodes
    assert (kept if side == "keeps" else set(H.labels) - kept) == labels
    assert g.density == greedy_density


class _Tally(list):
    """A list that sums the decrements made to each of its items."""

    def __init__(self, items):
        super().__init__(items)
        self.decrements = Counter()

    def __setitem__(self, i, x):
        self.decrements[i] += self[i] - x
        super().__setitem__(i, x)


FANO = "1 2 4\n2 3 5\n3 4 6\n4 5 7\n5 6 1\n6 7 2\n7 1 3\n"


# (input, group decrements in one whole peel); the wide-edge input has 518
# pair rows, one group decrement each before private pairs were split off
@pytest.mark.parametrize("make, decrements", [
    (lambda: hg(FANO), 0),
    (PINNED_WORK[2][0], 88),
], ids=["pair-disjoint", "wide-edge"])
def test_peel_decrements_only_shared_groups(monkeypatch, make, decrements):
    """Residual.delete's group work under peel, e-peel and greedy: each pair
    group held by two or more hyperedges is decremented once per holder, to
    0, and a group held by one is never touched."""
    tallies = []

    class Tallied(Residual):
        def __init__(self, H):
            super().__init__(H)
            self.gcount = _Tally(self.gcount)
            tallies.append(self.gcount)

    monkeypatch.setattr(sys.modules["hypercore.peel"], "Residual", Tallied)
    H = make()
    for route in (peel, e_peel, greedy_densest):
        route(H)
    assert len(tallies) == 3
    for gcount in tallies:
        assert [gcount.decrements[s] for s in range(len(gcount))] == H.shared_count.tolist()
        assert sum(gcount.decrements.values()) == decrements
        assert not any(gcount)


def test_empty_hypergraph():
    H = hypergraph([], [])
    assert peel(H).core == [] and e_peel(H).core == []


def test_core_containment(fig_five):
    res = peel(fig_five)
    for k in range(1, max(res.core) + 1):
        assert level_set(res, k + 1) <= level_set(res, k)


def test_matches_definitional_oracle(fig_five):
    assert peel(fig_five).core == naive_core_oracle(fig_five).core


def test_peel_deterministic(fig_five):
    r1, r2 = peel(fig_five), peel(fig_five)
    assert r1.core == r2.core and r1.counters == r2.counters


def test_core_by_label(fig_five):
    assert by_label(fig_five, peel(fig_five).core) == dict.fromkeys("abcde", 2)


def scan_peel(H, keys, bounded):
    """`_peel`'s recount and requeue rules, with the least (key, id) found by
    a linear scan and every count a member scan of the live hyperedges: a
    recounted node's key is its live residual count, and a deleted node's
    core the largest key popped so far."""
    n = H.n
    core, key, on_bound = [0] * n, list(keys), [bounded] * n
    queued, alive = [True] * n, [True] * n
    counters = {"neighborhood_recomputations": 0 if bounded else n, "cell_updates": 0}
    top = 0
    while any(queued):
        k, v = min((key[u], u) for u in range(n) if queued[u])
        queued[v] = False
        top = max(top, k)
        if on_bound[v]:
            on_bound[v] = False
            recount = [v]
        else:
            core[v] = top
            recount = [u for u in H.residual_neighbors(v, alive) if not on_bound[u]]
            alive[v] = False
            counters["neighborhood_recomputations"] += 1
        for u in recount:
            key[u], queued[u] = len(H.residual_neighbors(u, alive)), True
        counters["neighborhood_recomputations"] += len(recount)
        counters["cell_updates"] += len(recount)
    return core, counters


def test_peel_and_epeel_match_scan_reference():
    shared = wide = 0
    for seed, H in scan_pool():
        wide += max(map(len, edges(H))) > 4
        shared += H.d_pair > 1
        exact = [H.neighbor_count(v) for v in range(H.n)]
        bounds = [local_lower_bound(H, v) for v in range(H.n)]
        for route, keys, bounded in ((peel, exact, False), (e_peel, bounds, True)):
            res = route(H)
            assert (res.core, res.counters) == scan_peel(H, keys, bounded), (seed, route)
    assert shared > 100 and wide > 50

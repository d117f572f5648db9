from fractions import Fraction

import pytest

from hypercore import (
    Hypergraph,
    e_peel,
    greedy_densest,
    local_lower_bound,
    naive_core_oracle,
    peel,
    random_hypergraph,
)
from hypercore.peel import BucketQueue
from conftest import by_label, hg, with_wide_edge


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
    (lambda: random_hypergraph(80, 110, 2, 4, 21), (361, 201), (353, 273),
     ("drops", {"11", "15", "23", "26", "29", "32", "42", "72"}), Fraction(307, 36)),
    (lambda: random_hypergraph(100, 140, 2, 4, 23), (471, 273), (466, 367),
     ("drops", {"19", "24", "31", "51", "59", "64", "99"}), Fraction(212, 23)),
    (lambda: with_wide_edge(random_hypergraph(50, 60, 2, 4, 25), 25), (230, 130), (183, 133),
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


def test_empty_hypergraph():
    H = Hypergraph([], [])
    assert peel(H).core == [] and e_peel(H).core == []


def test_core_containment(fig_five):
    res = peel(fig_five)
    for k in range(1, max(res.core) + 1):
        assert res.level_set(k + 1) <= res.level_set(k)


def test_matches_definitional_oracle(fig_five):
    assert peel(fig_five).core == naive_core_oracle(fig_five).core


def test_peel_deterministic(fig_five):
    r1, r2 = peel(fig_five), peel(fig_five)
    assert r1.core == r2.core and r1.counters == r2.counters


def test_core_by_label(fig_five):
    assert by_label(fig_five, peel(fig_five).core) == dict.fromkeys("abcde", 2)


def drain(B):
    out = []
    while (popped := B.pop_min()) is not None:
        out.append(popped)
    return out


def test_bucket_queue_pops_in_key_then_id_order():
    B = BucketQueue(6)
    for v, k in [(4, 2), (0, 3), (5, 1), (2, 2), (1, 1), (3, 3)]:
        B.put(v, k)
    assert drain(B) == [(1, 1), (1, 5), (2, 2), (2, 4), (3, 0), (3, 3)]
    assert B.pop_min() is None


def test_bucket_queue_put_below_low_pops_next():
    # greedy's case: a deletion drops a neighbor's count below the last key
    B = BucketQueue(3)
    for v, k in [(0, 3), (1, 4), (2, 5)]:
        B.put(v, k)
    assert B.pop_min() == (3, 0)
    B.put(2, 1)
    assert B.pop_min() == (1, 2)
    assert drain(B) == [(4, 1)]


def test_bucket_queue_popped_node_put_again():
    # e-peel's case: a node popped on its bound is requeued at its count
    B = BucketQueue(2)
    B.put(0, 1)
    B.put(1, 2)
    assert B.pop_min() == (1, 0)
    B.put(0, 1)
    assert B.pop_min() == (1, 0)
    B.put(0, 3)
    assert drain(B) == [(2, 1), (3, 0)]


def test_bucket_queue_skips_stale_entries():
    B = BucketQueue(3)
    B.put(0, 1)
    B.put(1, 2)
    B.put(0, 4)  # leaves a stale entry of 0 in cell 1
    B.put(2, 4)
    B.put(2, 2)  # and of 2 in cell 4
    B.put(1, 2)  # same key: no new entry
    assert drain(B) == [(2, 1), (2, 2), (4, 0)]


def test_bucket_queue_empty_after_last_pop():
    B = BucketQueue(2)
    assert B.pop_min() is None
    B.put(0, 2)
    B.put(0, 5)
    B.put(0, 1)
    assert B.pop_min() == (1, 0)
    # stale entries of 0 remain in cells 2 and 5, but nothing is queued
    assert B.pop_min() is None
    assert [len(cell) for cell in B.cells] == [0, 0, 1, 0, 0, 1]

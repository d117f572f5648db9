from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypercore import (
    GuardError,
    build,
    clique_graph_core,
    degree_core,
    intervention_delete,
    kd_decompose,
    kdcore,
    local_core,
    naive_graph_h_index,
    peel,
    random_hypergraph,
)
from conftest import by_label, hg, with_wide_edge
from oracles import (
    core_members,
    edges,
    incident_edges,
    kd_fixpoint_oracle,
    kd_levels_reference,
    level_dict,
    peel_level,
)


def test_single_triple_levels(single_triple):
    res = kd_decompose(single_triple)
    assert res.kmax == 2
    assert level_dict(res, 1) == {0: 1, 1: 1, 2: 1}
    assert level_dict(res, 2) == {0: 1, 1: 1, 2: 1}


def test_triangle_pairs(triangle_pairs):
    res = kd_decompose(triangle_pairs)
    assert res.kmax == 2
    assert set(level_dict(res, 2).values()) == {2}


def test_five_node_fixture_secondary_values(fig_five):
    # the (2,2)-fixpoint is empty here: b falls on degree, then a, then the rest
    assert kd_fixpoint_oracle(fig_five, 2, 2) == set()
    res = kd_decompose(fig_five)
    assert res.kmax == 2
    assert set(level_dict(res, 2).values()) == {1}


def test_level_sets_match_neighborhood_cores(fig_five):
    res = kd_decompose(fig_five)
    cores = peel(fig_five).core
    for k in range(1, res.kmax + 1):
        assert set(level_dict(res, k)) == {v for v, c in enumerate(cores) if c >= k}


def test_levels_in_ascending_id_order():
    # a wide hyperedge spreads the cores, so descending core order is not id order
    for seed in range(20):
        H = with_wide_edge(random_hypergraph(12 + seed % 6, 14 + seed % 10, 2, 4, seed), seed)
        res, cores = kd_decompose(H), peel(H).core
        for k in res.levels:
            assert list(level_dict(res, k)) == [v for v in range(H.n) if cores[v] >= k], (seed, k)


def test_core_routes_on_the_empty_hypergraph(fig_five):
    # deleting every node leaves no hyperedge
    H = intervention_delete(fig_five, list(range(fig_five.n)), fig_five.n)
    assert H.n == 0
    res = local_core(H)
    assert (res.core, res.counters, res.report.rounds) == ([], {"h_operator_evals": 0}, 0)
    for route in (degree_core, clique_graph_core):
        res = route(H)
        assert (res.core, res.counters) == ([], {"rounds": 0, "neighbor_recounts": 0})
    kd = kd_decompose(H)
    assert (kd.kmax, kd.levels) == (0, {})
    assert naive_graph_h_index(H).counters == {"rounds": 0}


def test_matches_fixpoint_oracle_random():
    for seed in range(25):
        if seed < 15:
            H = random_hypergraph(8 + seed % 8, 12 + seed, 2, 4, seed)
        else:  # a wide hyperedge makes the hyperedges live at each level differ
            H = with_wide_edge(random_hypergraph(12 + seed % 6, 14 + seed % 10, 2, 4, seed), seed)
        res = kd_decompose(H)
        degree = degree_core(H).core
        dmax = max(H.degree(v) for v in range(H.n))
        for d in range(1, dmax + 2):
            assert {v for v in range(H.n) if degree[v] >= d} == kd_fixpoint_oracle(H, 1, d), (
                seed, d)
        for k in range(1, res.kmax + 2):
            for d in range(1, dmax + 2):
                assert core_members(res, k, d) == kd_fixpoint_oracle(H, k, d), (
                    seed, k, d)


def test_anti_monotone_membership():
    H = random_hypergraph(12, 20, 2, 4, 5)
    res = kd_decompose(H)
    for k in range(1, res.kmax + 1):
        for d in range(1, 5):
            assert core_members(res, k + 1, d) <= core_members(res, k, d)
            assert core_members(res, k, d + 1) <= core_members(res, k, d)


def test_secondary_values_positive():
    H = random_hypergraph(10, 15, 2, 4, 9)
    res = kd_decompose(H)
    for k in range(1, res.kmax + 1):
        assert all(d >= 1 for d in level_dict(res, k).values())


def test_degree_core_single_triple(single_triple):
    assert degree_core(single_triple).core == [1, 1, 1]


def test_degree_core_strong_induction_bites():
    # removing c kills the triple, dropping a and b to degree 1
    H = hg("a b\na b c\n")
    assert by_label(H, degree_core(H).core) == {"a": 1, "b": 1, "c": 1}


def test_degree_core_matches_fixpoint():
    for seed in range(10):
        H = random_hypergraph(10, 18, 2, 4, seed)
        core = degree_core(H).core
        dmax = max(core)
        for d in range(1, dmax + 2):
            assert {v for v in range(H.n) if core[v] >= d} == kd_fixpoint_oracle(H, 0, d)


def test_max_nbr_core_at_least_max_degree_core():
    # holds whenever no node pair shares more than one hyperedge
    for seed in range(10):
        H = random_hypergraph(12, 18, 2, 4, seed)
        pairs = set()
        simple = True
        for e in edges(H):
            for i in range(len(e)):
                for j in range(i + 1, len(e)):
                    if (e[i], e[j]) in pairs:
                        simple = False
                    pairs.add((e[i], e[j]))
        if simple:
            assert max(peel(H).core) >= max(degree_core(H).core)


def test_kd_degrades_to_degree_core_at_k1():
    H = hg("a b\nb c\na c\n")  # nbr-1-core is all of V
    res = kd_decompose(H)
    assert level_dict(res, 1) == dict(enumerate(degree_core(H).core))


def neighbor_check(H, live, us, k):
    """The level peel's neighbor check for the nodes us at level k, with the
    hyperedges in live (a flag per hyperedge of H) and the per-node state the
    peel keeps, built here from live: whether each passes, and how many were
    recounts."""
    us = np.array(us, dtype=np.int64)
    card = np.diff(H.edge_offsets)
    mine = [[ei for ei in incident_edges(H, u) if live[ei]] for u in us]
    wide = np.array([sum(card[ei] > k for ei in es) for es in mine], dtype=np.int64)
    most = np.array([sum(card[ei] - 1 for ei in es) for es in mine], dtype=np.int64)

    def count(sel):
        at = np.flatnonzero(sel)
        owner = np.array([i for i, j in enumerate(at) for _ in mine[j]], dtype=np.int64)
        e = np.array([ei for j in at for ei in mine[j]], dtype=np.int64)
        return kdcore._count_members(H, H.edge_flat, e, owner, us[at])

    work = {"rounds": 0, "neighbor_recounts": 0}
    passed = kdcore._has_neighbors(np.full(us.size, k), wide, most, kdcore._excess(H)[us],
                                   count, work)
    return passed.tolist(), work["neighbor_recounts"]


def test_neighbor_check_at_the_boundary():
    """a has exactly 3 neighbors through live hyperedges, then exactly 2;
    the count must not include a itself."""
    H = build([["a", "b", "c"], ["a", "d"], ["b", "d"]])[0]
    a, d = H.label_to_id["a"], H.label_to_id["d"]
    live = [True] * len(edges(H))
    assert neighbor_check(H, live, [a, a], 3)[0] == [True, True]
    assert neighbor_check(H, live, [a], 4) == ([False], 1)
    live = [all(u != d for u in e) for e in edges(H)]  # d deleted
    assert neighbor_check(H, live, [a], 2) == ([True], 0)  # {a, b, c} has 3 > 2 members
    assert neighbor_check(H, live, [a], 3) == ([False], 1)
    assert neighbor_check(H, live, [a, d], 0)[0] == [True, True]
    assert neighbor_check(H, live, [d], 1) == ([False], 1)


def test_neighbor_check_scans_only_between_the_bounds():
    # node 0 fails on wdeg 2 < 3, node 1 sits between 5 - 3 and 5 and is
    # counted, node 2 passes on its wide hyperedge, node 3 on 6 - 2 >= 3
    scanned = []

    def count(sel):
        scanned.append(sel.tolist())
        return np.array([3])

    work = {"rounds": 0, "neighbor_recounts": 0}
    passed = kdcore._has_neighbors(np.full(4, 3), np.array([0, 0, 1, 0]), np.array([2, 5, 9, 6]),
                                   np.array([0, 3, 0, 2]), count, work)
    assert passed.tolist() == [False, True, True, True]
    assert scanned == [[False, True, False, False]]
    assert work["neighbor_recounts"] == 3
    # {a, b, c} and {a, b, d} share the pair a-b: a has 3 neighbors, wdeg 4
    # and excess 1, so k = 3 passes on the bound and k = 4 is counted
    H = build([["a", "b", "c"], ["a", "b", "d"]])[0]
    assert kdcore._excess(H).tolist() == [1, 1, 0, 0]
    assert neighbor_check(H, [True, True], [H.label_to_id["a"]], 4) == ([False], 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.data())
def test_neighbor_check_matches_live_union(seed, wide, data):
    # 16 hyperedges on at most 14 nodes share many node pairs
    H = random_hypergraph(14 if wide else 10, 16, 2, 4, seed)
    if wide:
        H = with_wide_edge(H, seed)
    members = edges(H)
    live = data.draw(st.lists(st.booleans(), min_size=len(members), max_size=len(members)))
    unions = [set().union(*(members[ei] for ei in incident_edges(H, v) if live[ei])) - {v}
              for v in range(H.n)]
    for v, union in enumerate(unions):
        c = len(union)
        for k in {0, max(c - 1, 0), c, c + 1}:
            assert neighbor_check(H, live, [v], k)[0] == [c >= k], (v, k)
    # all nodes in one batch: only those without a live hyperedge of more
    # than k members are counted
    for k in range(max(map(len, unions)) + 2):
        wide_live = [any(live[ei] and len(members[ei]) > k for ei in incident_edges(H, v))
                     for v in range(H.n)]
        assert neighbor_check(H, live, range(H.n), k) == (
            [len(union) >= k for union in unions], wide_live.count(False)), k


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
@example(seed=0)
def test_kd_matches_fixpoint_oracle_property(seed):
    # shared node pairs, and a wide hyperedge that makes E_k differ by level
    H = with_wide_edge(random_hypergraph(14, 16, 2, 4, seed), seed)
    res, degree = kd_decompose(H), degree_core(H).core
    dmax = max(H.degree(v) for v in range(H.n))
    for d in range(1, dmax + 2):
        assert {v for v in range(H.n) if degree[v] >= d} == kd_fixpoint_oracle(H, 0, d), d
    for k in range(1, res.kmax + 2):
        for d in range(1, dmax + 2):
            assert core_members(res, k, d) == kd_fixpoint_oracle(H, k, d), (k, d)


def test_kd_counters_cover_level_one():
    # level 1 is degree_core's peel, and the only level when kmax = 1
    for seed in range(10):
        H = with_wide_edge(random_hypergraph(12, 16, 2, 4, seed), seed)
        kd, degree = kd_decompose(H).counters, degree_core(H).counters
        assert kd.keys() == degree.keys()
        assert all(kd[key] >= degree[key] for key in kd), seed
    for H in (hg("a b\nb c\n"), hg("a b\na c\na d\nd e\n")):
        res = kd_decompose(H)
        assert res.kmax == 1 and res.counters == degree_core(H).counters


def test_kd_counters_pinned(fig_five):
    # per level: b falls on degree 1, then a and e, then c and d; no touched
    # node keeps a degree above d, so none is counted
    assert kd_decompose(fig_five).counters == {"rounds": 6, "neighbor_recounts": 0}
    # every core is 3.  Levels 1 and 2: b at d = 1, then a and d at 2, then
    # c; at level 2 the touched a, c and d keep {a, c, d}, of more than 2
    # members, so none is counted.  Level 3: b at d = 1, then a, c and d in
    # one sub-round, each counted and left with 2 < 3 neighbors
    H = hg("a b c d\na c\na c d\nc d\n")
    res = kd_decompose(H)
    assert res.counters == {"rounds": 8, "neighbor_recounts": 3}
    assert by_label(H, level_dict(res, 2)) == {"a": 2, "b": 1, "c": 2, "d": 2}
    assert by_label(H, level_dict(res, 3)) == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_lattice_guard(monkeypatch, fig_five):
    # fig_five's lattice holds 5 nodes at each of 2 levels: 10 entries
    def no_level(*args):
        raise AssertionError("a level was peeled")

    monkeypatch.setattr(kdcore, "LATTICE_GUARD", 9)
    monkeypatch.setattr(kdcore, "_peel_group", no_level)
    with pytest.raises(GuardError, match=r"^lattice guard: 10 \(k,d\) entries > 9$"):
        kd_decompose(fig_five)
    monkeypatch.undo()
    monkeypatch.setattr(kdcore, "LATTICE_GUARD", 10)
    assert sum(map(len, kd_decompose(fig_five).levels.values())) == 10


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.sampled_from([kdcore.GROUP_CELLS, 0, 10**9]))
@example(seed=0, wide=True, budget=kdcore.GROUP_CELLS)
@example(seed=0, wide=True, budget=0)
@example(seed=0, wide=True, budget=10**9)
def test_levels_match_the_per_level_reference(seed, wide, budget):
    # shared node pairs, and a wide hyperedge that makes E_k differ by level;
    # groups at the default budget, of one level each, and of every level.
    # At seed 0 the wide hyperedge leaves hyperedges outside E_k at nodes of
    # V_k for k >= 4, also in the groups of one level
    H = random_hypergraph(14, 16, 2, 4, seed)
    if wide:
        H = with_wide_edge(H, seed)
    ref = kd_levels_reference(H)
    with mock.patch.object(kdcore, "GROUP_CELLS", budget):
        res = kd_decompose(H)
    assert res.kmax == ref.kmax
    assert [(k, list(level_dict(res, k).items())) for k in res.levels] == [
        (k, list(level_dict(ref, k).items())) for k in ref.levels]
    assert res.counters == ref.counters
    work = {"rounds": 0, "neighbor_recounts": 0}
    m = H.edge_offsets.size - 1
    dk = peel_level(H, 1, np.ones(H.n, dtype=bool), np.ones(m, dtype=bool), work)
    res = degree_core(H)
    assert (res.core, res.counters) == (dk.tolist(), work)


def test_groups_span_several_levels(monkeypatch):
    # a 40-edge path and a hyperedge on 10 of its nodes: levels 1 and 2 hold
    # most of it, levels 3 to 9 only those 10 and their hyperedge, 11 cells
    # each, so at the default budget of (41 + 41) / 2 cells three of them
    # share a group; a zero budget gives each level its own
    text = "".join(f"p{i} p{i + 1}\n" for i in range(40))
    H = hg(text + " ".join(f"p{4 * i}" for i in range(10)) + "\n")
    spans = []
    peel_group = kdcore._peel_group

    def spy(H, k0, k1, *args):
        spans.append((k0, k1))
        return peel_group(H, k0, k1, *args)

    monkeypatch.setattr(kdcore, "_peel_group", spy)
    ref = kd_levels_reference(H)
    for budget, groups in ((kdcore.GROUP_CELLS, [(1, 1), (2, 2), (3, 5), (6, 8), (9, 9)]),
                           (0, [(k, k) for k in range(1, 10)])):
        spans.clear()
        monkeypatch.setattr(kdcore, "GROUP_CELLS", budget)
        res = kd_decompose(H)
        assert spans == groups
        assert [list(level_dict(res, k).items()) for k in res.levels] == [
            list(level_dict(ref, k).items()) for k in ref.levels]
        assert res.counters == ref.counters


def test_levels_are_int64_arrays_over_the_core_prefix(monkeypatch):
    # levels[k] holds d_k for the nodes np.flatnonzero(core >= k), one entry each
    for seed in range(5):
        res = kd_decompose(with_wide_edge(random_hypergraph(14, 16, 2, 4, seed), seed))
        assert res.core.dtype == np.int64 and list(res.levels) == list(range(1, res.kmax + 1))
        for k, level in res.levels.items():
            assert type(level) is np.ndarray and level.dtype == np.int64, (seed, k)
            assert level.size == np.count_nonzero(res.core >= k), (seed, k)
            assert level.base is None, (seed, k)  # a copy: no view keeps its group's array
        assert sum(level.size for level in res.levels.values()) == res.core.sum()
    # one 200-member hyperedge: every core is 199, and each level's 201 cells
    # pass the default budget of (200 + 1) / 2, so its levels peel in 199
    # groups of one
    H = hg(" ".join(f"w{i}" for i in range(200)) + "\n")
    spans = []
    peel_group = kdcore._peel_group

    def spy(H, k0, k1, *args):
        spans.append((k0, k1))
        return peel_group(H, k0, k1, *args)

    monkeypatch.setattr(kdcore, "_peel_group", spy)
    res, ref = kd_decompose(H), kd_levels_reference(H)
    assert spans == [(k, k) for k in range(1, 200)]
    assert res.core.tolist() == [199] * 200 and sum(map(len, res.levels.values())) == 39_800
    assert list(res.levels) == list(ref.levels) == list(range(1, 200))
    for k, level in res.levels.items():
        assert level.dtype == np.int64 and level.tolist() == ref.levels[k].tolist(), k
    assert res.counters == ref.counters


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.data())
def test_degree_sum_bounds_live_neighbors(seed, wide, data):
    # wdeg - excess <= |live union - {v}| <= wdeg, with wdeg the sum of
    # |e| - 1 over v's live hyperedges, at every node and live mask
    H = random_hypergraph(14 if wide else 10, 16, 2, 4, seed)
    if wide:
        H = with_wide_edge(H, seed)
    members = edges(H)
    live = data.draw(st.lists(st.booleans(), min_size=len(members), max_size=len(members)))
    excess = kdcore._excess(H)
    for v in range(H.n):
        mine = [members[ei] for ei in incident_edges(H, v) if live[ei]]
        wdeg = sum(len(e) - 1 for e in mine)
        union = len(set().union(*mine) - {v})
        assert wdeg - excess[v] <= union <= wdeg, v
    # with every hyperedge live both ends are the definition
    assert all(excess[v] == sum(len(members[ei]) - 1 for ei in incident_edges(H, v))
               - H.neighbor_count(v) for v in range(H.n))

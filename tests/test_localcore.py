import os
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercore import (
    InputError,
    LocalCoreOptions,
    build,
    clique_graph_core,
    local_core,
    naive_graph_h_index,
    peel,
    random_hypergraph,
)
from hypercore.localcore import CODE_BITS
from hypercore.model import PAIR_ROW_GUARD
from conftest import by_label, hg, scan_pool, with_wide_edge
from oracles import (core_correction, h_operator, hypergraph, naive_core_oracle,
                     neighborhood_hierarchy)


def test_h_operator_values():
    assert h_operator([1, 1, 2, 2]) == 2
    assert h_operator([1, 2, 3, 3]) == 2
    assert h_operator([1, 3, 3, 3]) == 3
    assert h_operator([]) == 0


def test_core_correction_lowers_overshoot(fig_five):
    est = [0] * 5
    for lab, val in {"a": 3, "b": 2, "c": 3, "d": 3, "e": 3}.items():
        est[fig_five.label_to_id[lab]] = val
    assert core_correction(fig_five, fig_five.label_to_id["a"], 3, est) == 2


def test_core_correction_identity_when_constraint_holds(single_triple):
    assert core_correction(single_triple, 0, 2, [2, 2, 2]) == 2


def test_core_correction_pair_edge():
    H = hg("a b\n")
    assert core_correction(H, 0, 1, [1, 1]) == 1


def test_default_matches_peel(fig_five):
    assert local_core(fig_five).core == peel(fig_five).core


def test_thread_counts_match_sequential(fig_five):
    expected = local_core(fig_five).core
    for t in (2, 4, 8):
        assert local_core(fig_five, LocalCoreOptions(threads=t)).core == expected


def test_jacobi_threads_under_fast_switching(monkeypatch):
    # more threads than cores and a tiny switch interval interleave the
    # blocks' writes to the shared estimate array as much as possible; the
    # pool takes no more threads than the CPU count, so that is raised
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    H = random_hypergraph(400, 800, 2, 4, 9)
    expected = peel(H).core
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert local_core(H, LocalCoreOptions(threads=8)).core == expected
    finally:
        sys.setswitchinterval(interval)


def test_threads_must_be_positive(fig_five):
    # a count that is not an integer is refused too; a numpy integer is one
    for threads in (0, 2.5, "2", None):
        with pytest.raises(InputError):
            local_core(fig_five, LocalCoreOptions(threads=threads))
    assert local_core(fig_five, LocalCoreOptions(threads=np.int64(2))).core == peel(fig_five).core


def test_single_triple_one_round(single_triple):
    res = local_core(single_triple)
    assert res.core == [2, 2, 2]
    assert res.report.rounds == 1


def test_random_instance_matches_oracle():
    H = random_hypergraph(20, 30, 3, 3, 7)
    assert local_core(H).core == naive_core_oracle(H).core


def test_estimates_monotone_under_all_flags():
    # re-running from the converged array must change nothing
    H = random_hypergraph(15, 25, 2, 4, 3)
    res = local_core(H)
    assert res.core == peel(H).core


def test_naive_h_index_overshoots(fig_five):
    naive = naive_graph_h_index(fig_five)
    assert by_label(fig_five, naive.core) == {"a": 3, "b": 2, "c": 3, "d": 3, "e": 3}
    true = local_core(fig_five).core
    assert all(nv >= tv for nv, tv in zip(naive.core, true))
    assert any(nv > tv for nv, tv in zip(naive.core, true))


def test_naive_h_index_pointwise_upper_bound_random():
    for seed in range(20):
        H = random_hypergraph(10 + seed, 15 + seed, 2, 4, seed)
        naive = naive_graph_h_index(H).core
        true = peel(H).core
        assert all(nv >= tv for nv, tv in zip(naive, true))


def test_naive_h_index_is_clique_graph_coreness():
    # the h-index iterated from degrees converges to graph coreness (Lu, Zhou,
    # Zhang and Stanley 2016), here the clique expansion's: two independent
    # engines must agree
    d_pairs = set()
    for seed in range(40):
        H = random_hypergraph(10 + seed % 8, 12 + seed, 2, 4, seed)
        if seed % 2:
            H = with_wide_edge(H, seed)
        d_pairs.add(H.d_pair)
        assert naive_graph_h_index(H).core == clique_graph_core(H).core, seed
    assert max(d_pairs) > 1  # node pairs shared by several hyperedges


def reference_h_index(H):
    """The plain h-index recurrence from degrees, node by node: its fixpoint
    and the rounds run, the last one change-free."""
    nbrs = [H.neighbors(v) for v in range(H.n)]
    cur = [len(nbr) for nbr in nbrs]
    rounds = 0
    while True:
        rounds += 1
        new = [h_operator([cur[u] for u in nbr]) for nbr in nbrs]
        if new == cur:
            return cur, rounds
        cur = new


def test_naive_h_index_matches_reference_recurrence():
    for seed, H in scan_pool():
        res = naive_graph_h_index(H)
        assert (res.core, res.counters["rounds"]) == reference_h_index(H), seed


@pytest.mark.parametrize("text, rounds", [
    ("a b e\na c d\nc d e\n", 2),  # fig_five
    ("a b c\n", 1),
    ("a b\nb c\n", 2),
    ("".join(f"p{i} p{i + 1}\n" for i in range(20)), 11),  # a 21-node path
    ("", 0),  # no node, so no round, as local_core reports
])
def test_naive_h_index_rounds(text, rounds):
    H = hg(text) if text else hypergraph([], [])
    assert naive_graph_h_index(H).counters == {"rounds": rounds}


def test_naive_agrees_on_clean_instance(single_triple):
    assert naive_graph_h_index(single_triple).core == [2, 2, 2]


def test_hierarchy_symmetric(single_triple):
    assert neighborhood_hierarchy(single_triple) == [0, 0, 0]


def test_hierarchy_fixture(fig_five):
    assert by_label(fig_five, neighborhood_hierarchy(fig_five)) == {
        "b": 0, "a": 1, "e": 1, "c": 2, "d": 2,
    }


def test_hierarchy_path():
    H = hg("a b\nb c\nc d\n")
    assert by_label(H, neighborhood_hierarchy(H)) == {"a": 0, "d": 0, "b": 1, "c": 1}


def test_rounds_bounded_by_hierarchy(fig_five):
    bound = max(neighborhood_hierarchy(fig_five)) + 1
    assert local_core(fig_five).report.rounds <= bound


def test_routes_agree_on_wide_hyperedge():
    # one 40-member hyperedge, wider than any in the acceptance pool (<= 5),
    # with small edges of cardinality 2-4 around and across it
    rng = random.Random(5)
    labels = [f"w{i}" for i in range(40)] + [f"x{i}" for i in range(30)]
    lines = [" ".join(labels[:40])]
    for _ in range(80):
        lines.append(" ".join(rng.sample(labels, rng.randint(2, 4))))
    H = hg("\n".join(lines) + "\n")
    expected = peel(H).core
    assert len(set(expected)) > 2
    for opts in (LocalCoreOptions(), LocalCoreOptions(threads=2), LocalCoreOptions(threads=4)):
        res = local_core(H, opts)
        assert res.core == expected, opts
        assert set(res.counters) == {"h_operator_evals"}, opts


def _threads_started(monkeypatch, H, opts):
    started = []
    real_start = threading.Thread.start

    def counting_start(self):
        started.append(self)
        real_start(self)

    with monkeypatch.context() as m:
        m.setattr(threading.Thread, "start", counting_start)
        core = local_core(H, opts).core
    return core, len(started)


def test_thread_use(monkeypatch):
    H = random_hypergraph(3000, 6000, 2, 4, 1)
    expected = peel(H).core
    for opts in (None, LocalCoreOptions(threads=1)):
        assert _threads_started(monkeypatch, H, opts) == (expected, 0), opts
    # two blocks on a host of four CPUs run on two threads, and four blocks
    # on a host of two CPUs too
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _threads_started(monkeypatch, H, LocalCoreOptions(threads=2)) == (expected, 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _threads_started(monkeypatch, H, LocalCoreOptions(threads=4)) == (expected, 2)


def test_single_wide_edge_at_lower_bound():
    H = hg("a b c d e\n")  # LB = |N| = true core for everyone
    for t in (1, 2):
        assert local_core(H, LocalCoreOptions(threads=t)).core == [4] * 5


def test_parallel_matches_on_random_instances():
    for seed in range(10):
        H = random_hypergraph(10 + seed, 20, 2, 4, seed)
        seq = local_core(H).core
        for t in (2, 4):
            assert local_core(H, LocalCoreOptions(threads=t)).core == seq


def test_report_history_sums(fig_five):
    res = local_core(fig_five)
    assert res.report.corrected_per_round[-1] == 0
    assert len(res.report.corrected_per_round) == res.report.rounds


def reference_rounds(H):
    """The definitional round iterated to a fixpoint from neighbor counts:
    each node's h-index of its neighbors' estimates, lowered by the core
    correction and never above its old estimate, all from the round-start
    estimates.  Returns the fixpoint and each round's count of lowered
    estimates, the last round change-free."""
    nbrs = [H.neighbors(v) for v in range(H.n)]
    est = [len(nbr) for nbr in nbrs]
    history = []
    while True:
        new = [min(est[v], core_correction(H, v, h_operator([est[u] for u in nbr]), est))
               for v, nbr in enumerate(nbrs)]
        history.append(sum(a < b for a, b in zip(new, est)))
        est = new
        if not history[-1]:
            return est, history


@st.composite
def shared_pair_hypergraphs(draw):
    """Random hypergraphs on which the node pair 0 1 is held by 2 to 4
    hyperedges of different widths."""
    n = draw(st.integers(6, 14))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=5), max_size=24))
    for width in draw(st.lists(st.integers(2, n), min_size=2, max_size=4, unique=True)):
        edges.append({0, 1, *draw(st.permutations(range(2, n)))[: width - 2]})
    return build([[str(v) for v in e] for e in edges])[0]


@settings(max_examples=150, deadline=None)
@given(shared_pair_hypergraphs(), st.integers(1, 3))
def test_rounds_match_the_definitional_round(H, threads):
    # the weighted-incidence round, with its -1 and +1 entries for the pair
    # held several times, lowers the definitional round's estimates, round
    # for round, on every thread count
    assert H.d_pair >= 2
    res = local_core(H, LocalCoreOptions(threads=threads))
    assert (res.core, res.report.corrected_per_round) == reference_rounds(H)
    assert res.report.rounds == len(res.report.corrected_per_round)


def test_round_keys_fit_in_int64():
    # a round's sort key is ((node * (hi + 1) + hi - value) << CODE_BITS) |
    # code: the most distinct cardinalities a pair table within the guard
    # holds (the widths 2, 3, ...), with the weights -1 and +1, fit the code
    widths = rows = 0
    while rows + (widths + 2) * (widths + 1) <= PAIR_ROW_GUARD:
        widths += 1
        rows += (widths + 1) * widths
    assert widths + 2 <= 1 << CODE_BITS
    # and n <= PAIR_ROW_GUARD, so node * (hi + 1) + hi < n**2
    assert PAIR_ROW_GUARD**2 << CODE_BITS <= 2**59

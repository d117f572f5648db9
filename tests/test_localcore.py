import itertools
import random
import sys
import threading

import pytest

from hypercore import (
    InputError,
    LocalCoreOptions,
    core_correction,
    h_operator,
    local_core,
    naive_core_oracle,
    naive_graph_h_index,
    neighborhood_hierarchy,
    peel,
    random_hypergraph,
)
from conftest import by_label, hg


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


def test_all_flag_combinations_match_peel(fig_five):
    expected = peel(fig_five).core
    for o2, o3, o4 in itertools.product([False, True], repeat=3):
        opts = LocalCoreOptions(use_opt2=o2, use_opt3=o3, use_opt4=o4)
        assert local_core(fig_five, opts).core == expected


def test_thread_counts_match_sequential(fig_five):
    expected = local_core(fig_five).core
    for t in (2, 4, 8):
        assert local_core(fig_five, LocalCoreOptions(threads=t)).core == expected


def test_jacobi_threads_under_fast_switching():
    # more threads than cores and a tiny switch interval interleave the
    # blocks' writes to the shared estimate array as much as possible
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
    with pytest.raises(InputError):
        local_core(fig_five, LocalCoreOptions(threads=0))


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
    res = local_core(fig_five, LocalCoreOptions(use_opt3=False))
    assert res.report.rounds <= bound


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
    for opts in (LocalCoreOptions(), LocalCoreOptions(use_opt3=False),
                 LocalCoreOptions(use_opt2=False), LocalCoreOptions(threads=2)):
        res = local_core(H, opts)
        assert res.core == expected, opts
        assert set(res.counters) == {
            "h_operator_evals", "correction_iterations", "lccsat_edge_scans"}, opts


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
    for opts in (LocalCoreOptions(), LocalCoreOptions(use_opt3=False)):
        assert _threads_started(monkeypatch, H, opts) == (expected, 0), opts
    assert _threads_started(monkeypatch, H, LocalCoreOptions(threads=2)) == (expected, 2)


def test_opt4_finishes_at_lower_bound():
    H = hg("a b c d e\n")  # LB = |N| = true core for everyone
    res = local_core(H, LocalCoreOptions(use_opt4=True))
    assert res.core == [4] * 5


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

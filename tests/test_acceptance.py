"""Acceptance gate: eleven release criteria, one test (and one pass/fail
line under pytest -v) per criterion.

Criteria 2 and 4-6 share a pool of 200 random instances; criteria 8-9 share a
pool of 50 small instances.  Criterion 11 is the directional performance
check on a 100,000-node input and dominates the suite's runtime.
"""

import time
from fractions import Fraction

import pytest

from hypercore import (
    Hypergraph,
    LocalCoreOptions,
    brute_force_densest,
    e_peel,
    exact_densest,
    greedy_densest,
    kd_decompose,
    local_core,
    naive_graph_h_index,
    parse_hg,
    peel,
    random_hypergraph,
    sir_run,
)
from oracles import (
    core_correction,
    core_members,
    edges,
    h_operator,
    hypergraph,
    kd_fixpoint_oracle,
    local_lower_bound,
    naive_core_oracle,
    neighborhood_hierarchy,
    oracle_k_core_sets,
    sir_expected_spread,
)

FIG5 = "a b e\na c d\nc d e\n"


@pytest.fixture(scope="module")
def pool200():
    """200 random instances with n <= 30, m <= 60, cardinalities 2-5."""
    out = []
    for seed in range(200):
        n = 5 + seed % 26
        card_max = min(2 + seed % 4, n)
        m = min(5 + (seed * 7) % 56, n * (n - 1) // 2)
        out.append(random_hypergraph(n, m, 2, card_max, seed))
    return out


@pytest.fixture(scope="module")
def pool200_truth(pool200):
    return [naive_core_oracle(H).core for H in pool200]


@pytest.fixture(scope="module")
def pool_small():
    """50 instances with n <= 12 for the densest-subhypergraph criteria."""
    out = []
    for seed in range(50):
        n = 5 + seed % 8
        m = min(6 + seed % 12, n * (n - 1) // 2)
        out.append(random_hypergraph(n, m, 2, min(4, n), seed))
    return out


def permute(H: Hypergraph, shift: int) -> tuple[Hypergraph, list[int]]:
    """Relabel nodes by a cyclic shift; returns (new H, old id -> new id)."""
    pi = [(v + shift) % H.n for v in range(H.n)]
    labels = [""] * H.n
    for v in range(H.n):
        labels[pi[v]] = H.labels[v]
    permuted = sorted(tuple(sorted(pi[v] for v in e)) for e in edges(H))
    return hypergraph(permuted, labels), pi


def test_criterion_01_h_operator_table():
    start = time.perf_counter()
    table = {
        (1, 1, 1, 1): 1,
        (1, 1, 1, 2): 1,
        (1, 1, 2, 2): 2,
        (1, 2, 2, 2): 2,
        (1, 2, 3, 3): 2,
        (1, 3, 3, 3): 3,
    }
    for values, expected in table.items():
        assert h_operator(values) == expected, values
    assert time.perf_counter() - start < 1e-3


def test_criterion_02_oracle_equivalence(pool200, pool200_truth):
    start = time.perf_counter()
    for H, truth in zip(pool200, pool200_truth):
        assert peel(H).core == truth
        assert e_peel(H).core == truth
        for t in (1, 2, 4, 8):
            assert local_core(H, LocalCoreOptions(threads=t)).core == truth, t
    assert time.perf_counter() - start < 60


def test_criterion_03_negative_result_fixture():
    H, _ = parse_hg(FIG5)
    naive = {H.labels[v]: c for v, c in enumerate(naive_graph_h_index(H).core)}
    assert naive == {"a": 3, "b": 2, "c": 3, "d": 3, "e": 3}
    for algo in (peel, e_peel, local_core):
        assert algo(H).core == [2] * 5
    est = [naive[lab] for lab in H.labels]
    assert core_correction(H, H.label_to_id["a"], 3, est) == 2


def test_criterion_04_theorems_as_properties(pool200, pool200_truth):
    for i, (H, truth) in enumerate(zip(pool200, pool200_truth)):
        # uniqueness under relabeling
        Hp, pi = permute(H, shift=1 + i % (H.n - 1))
        permuted = peel(Hp).core
        assert all(permuted[pi[v]] == truth[v] for v in range(H.n))
        # containment of per-k survivor sets
        sets = oracle_k_core_sets(H)
        for small, big in zip(sets[1:], sets):
            assert small <= big
        # sandwich bound
        for v in range(H.n):
            assert local_lower_bound(H, v) <= truth[v] <= H.neighbor_count(v)


def test_criterion_05_epeel_efficiency(pool200):
    for H in pool200:
        assert (e_peel(H).counters["neighborhood_recomputations"]
                <= peel(H).counters["neighborhood_recomputations"])
    crafted, _ = parse_hg("x a\na b c\na b d\na c d\nb c d\n")
    assert (e_peel(crafted).counters["neighborhood_recomputations"]
            < peel(crafted).counters["neighborhood_recomputations"])


def test_criterion_06_convergence_bound(pool200):
    for H in pool200:
        bound = max(neighborhood_hierarchy(H)) + 1
        assert local_core(H).report.rounds <= bound


def test_criterion_07_kd_core_vs_oracle():
    mismatches = 0
    for seed in range(50):
        n = 6 + seed % 10
        H = random_hypergraph(n, min(8 + seed % 14, n * (n - 1) // 2), 2,
                              min(4, n), 1000 + seed)
        res = kd_decompose(H)
        dmax = max(H.degree(v) for v in range(H.n))
        for k in range(1, res.kmax + 2):
            for d in range(1, dmax + 2):
                if core_members(res, k, d) != kd_fixpoint_oracle(H, k, d):
                    mismatches += 1
    assert mismatches == 0


def test_criterion_08_densest_exactness(pool_small):
    for H in pool_small:
        res = exact_densest(H)
        assert res.density == brute_force_densest(H).density
        lo, hi = res.bracket
        assert hi - lo < Fraction(1, 2 * H.n * H.n)


def test_criterion_09_approximation_guarantee(pool_small):
    for H in pool_small:
        g = greedy_densest(H)
        opt = brute_force_densest(H).density
        assert g.density >= opt / g.factor
    uniform2 = random_hypergraph(10, 15, 2, 2, 3)
    assert greedy_densest(uniform2).factor == 2


def test_criterion_10_sir():
    H, _ = parse_hg("a b\nb c\n")
    seed = H.label_to_id["a"]
    assert sir_run(H, seed, beta=0.0, rng_seed=0).spread == 1
    assert sir_run(H, seed, beta=1.0, rng_seed=0).spread == 3
    assert sir_run(H, seed, beta=1.0, rng_seed=5).infected == set(range(3))
    expected = sir_expected_spread(H, seed, Fraction(1, 2))
    assert expected == Fraction(7, 4)
    runs = 100_000
    mean = sum(
        sir_run(H, seed, beta=0.5, rng_seed=i).spread for i in range(runs)
    ) / runs
    se = (11 / 16) ** 0.5 / runs**0.5  # sd of the spread distribution
    assert abs(mean - float(expected)) < 3 * se


def test_criterion_11_directional_performance():
    H = random_hypergraph(100_000, 200_000, 4, 4, 1)

    # 1 and 4 threads alternate three times and the fastest of each is
    # compared, so one slow sample cannot decide the inequality
    t_seq, t_par = [], []
    for _ in range(3):
        start = time.perf_counter()
        res_seq = local_core(H)
        t_seq.append(time.perf_counter() - start)
        assert t_seq[-1] < 300, f"local_core took {t_seq[-1]:.1f}s"

        start = time.perf_counter()
        res_par = local_core(H, LocalCoreOptions(threads=4))
        t_par.append(time.perf_counter() - start)
        assert res_par.core == res_seq.core
    assert min(t_par) <= min(t_seq), f"4 threads {min(t_par):.1f}s vs 1 thread {min(t_seq):.1f}s"

    t_local = t_seq[0]
    start = time.perf_counter()
    res_peel = peel(H)
    t_peel = time.perf_counter() - start
    assert res_peel.core == res_seq.core
    assert t_local < t_peel, f"local {t_local:.1f}s vs peel {t_peel:.1f}s"

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from hypercore import (
    GuardError,
    Hypergraph,
    InputError,
    brute_force_densest,
    exact_densest,
    greedy_densest,
    guarantee_factor,
    intervention_delete,
    naive_core_oracle,
    random_hypergraph,
    volume_density,
)
from hypercore import densest
from hypercore.densest import _flow_probe
from conftest import hg, ids, with_wide_edge


def test_volume_density_single_triple(single_triple):
    assert volume_density(single_triple, range(3)) == 2


def test_volume_density_triangle(triangle_pairs):
    assert volume_density(triangle_pairs, range(3)) == 2


def test_volume_density_partial_set(fig_five):
    S = ids(fig_five, ["a", "c", "d", "e"])
    assert volume_density(fig_five, S) == Fraction(5, 2)


def test_volume_density_empty_set_rejected(fig_five):
    with pytest.raises(InputError):
        volume_density(fig_five, [])


def test_empty_hypergraph_refused(single_triple):
    emptied = intervention_delete(single_triple, [0], 1)
    for H in (Hypergraph([], []), emptied):
        for route in (brute_force_densest, greedy_densest, exact_densest, guarantee_factor):
            with pytest.raises(InputError):
                route(H)


def test_guarantee_factor_values(single_triple):
    assert guarantee_factor(single_triple) == 3
    assert guarantee_factor(hg("a b\nb c\n")) == 2
    assert guarantee_factor(hg("a b c\na b d\n")) == 4


def test_greedy_single_triple(single_triple):
    res = greedy_densest(single_triple)
    assert res.nodes == {0, 1, 2}
    assert res.density == 2


def test_brute_force_fixture(fig_five):
    res = brute_force_densest(fig_five)
    assert res.density == Fraction(16, 5)
    assert res.nodes == set(range(5))


def test_brute_force_disjoint_components():
    H = hg("a b\nc d e\n")
    res = brute_force_densest(H)
    assert res.density == 2
    assert {H.labels[v] for v in res.nodes} == {"c", "d", "e"}


def test_brute_force_guard():
    H = random_hypergraph(25, 30, 2, 3, 0)
    with pytest.raises(GuardError):
        brute_force_densest(H)


def test_exact_matches_brute_on_random():
    for seed in range(20):
        H = random_hypergraph(6 + seed % 6, 8 + seed, 2, 4, seed)
        assert exact_densest(H).density == brute_force_densest(H).density, seed


def test_exact_fixture(fig_five):
    res = exact_densest(fig_five)
    assert res.density == Fraction(16, 5)
    lo, hi = res.bracket
    assert hi - lo < Fraction(1, 2 * fig_five.n**2)


def test_exact_result_density_recomputes(fig_five):
    res = exact_densest(fig_five)
    assert volume_density(fig_five, res.nodes) == res.density


def test_greedy_within_factor():
    for seed in range(20):
        H = random_hypergraph(6 + seed % 5, 8 + seed, 2, 4, seed)
        g = greedy_densest(H)
        opt = brute_force_densest(H).density
        assert g.density <= opt
        assert g.density >= opt / g.factor, seed


def reference_greedy(H):
    """Greedy by its definition: within each core group, in ascending core
    order, delete the pending node of least (residual neighbor count, id),
    recounting every count with a member scan; keep the first densest
    prefix."""
    cores = naive_core_oracle(H).core
    alive = [True] * H.n
    best_set, best_density = set(range(H.n)), volume_density(H, range(H.n))
    for c in sorted(set(cores)):
        pending = {v for v in range(H.n) if cores[v] == c}
        while pending:
            v = min(pending, key=lambda u: (len(H.residual_neighbors(u, alive)), u))
            pending.discard(v)
            alive[v] = False
            rest = {u for u in range(H.n) if alive[u]}
            if rest and volume_density(H, rest) > best_density:
                best_set, best_density = rest, volume_density(H, rest)
    pairs = Counter(p for e in H.edges for p in combinations(e, 2))
    factor = max(pairs.values()) * (max(map(len, H.edges)) - 2) + 2
    return best_set, best_density, factor


def test_greedy_matches_reference_order():
    # few nodes and many hyperedges make count ties common; every other
    # input adds one hyperedge on 8 to 12 nodes
    for seed in range(40):
        H = random_hypergraph(8 + seed % 7, 10 + seed % 13, 2, 4, seed)
        if seed % 2:
            H = with_wide_edge(H, seed)
        res = greedy_densest(H)
        assert (res.nodes, res.density, res.factor) == reference_greedy(H), seed


def test_two_uniform_factor_is_two():
    H = random_hypergraph(10, 15, 2, 2, 4)
    assert greedy_densest(H).factor == 2


def test_flow_probe_positive_answers_are_sound():
    for seed in range(8):
        H = random_hypergraph(6 + seed % 4, 9 + seed, 2, 4, seed)
        opt = brute_force_densest(H).density
        for eta in (opt - Fraction(1, 7), opt, opt + Fraction(1, 7)):
            if eta <= 0:
                continue
            denser, nodes = _flow_probe(H, eta)
            if denser:
                assert volume_density(H, nodes) > eta, (seed, eta)


def test_flow_probe_exact_without_shared_pairs():
    # pairwise-disjoint hyperedges: the flow answer is conclusive both ways
    H = hg("a b c\nd e\nf g h\n")
    opt = brute_force_densest(H).density
    for eta in (opt - Fraction(1, 7), opt, opt + Fraction(1, 7)):
        denser, _ = _flow_probe(H, eta)
        assert denser == (opt > eta), eta


def test_exact_handles_shared_pairs():
    # two hyperedges sharing the pair {a, b}: the plain flow probe misses
    # the optimum here, the exact search must not
    H = hg("a b c\na b d\na b e\nf g\n")
    assert exact_densest(H).density == brute_force_densest(H).density


def test_min_cut_edge_layer_is_strongly_induced(fig_five, monkeypatch):
    # read the edge layer (network vertices n + 2 + ei) off the min cut itself
    sides = []
    source_side = densest._Dinic.min_cut_source_side

    def record(net, s):
        sides.append(source_side(net, s))
        return sides[-1]

    monkeypatch.setattr(densest._Dinic, "min_cut_source_side", record)
    _, nodes = _flow_probe(fig_five, Fraction(3))
    n = fig_five.n
    edges = {ei for ei in range(len(fig_five.edges)) if n + 2 + ei in sides[0]}
    inside = {ei for ei, e in enumerate(fig_five.edges) if all(v in nodes for v in e)}
    assert edges == inside

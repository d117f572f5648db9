import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from hypercore import (
    GuardError,
    InputError,
    brute_force_densest,
    build,
    exact_densest,
    greedy_densest,
    guarantee_factor,
    intervention_delete,
    random_hypergraph,
    volume_density,
)
from hypercore import densest
from hypercore.densest import _flow_probe
from conftest import hg, ids, scan_pool, with_wide_edge
from oracles import edges, hypergraph, naive_core_oracle


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
    for H in (hypergraph([], []), emptied):
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
    pairs = Counter(p for e in edges(H) for p in combinations(e, 2))
    factor = max(pairs.values()) * (max(map(len, edges(H))) - 2) + 2
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
    # the 200 inputs the peel and e-peel scan reference runs on
    for seed, H in scan_pool():
        res = greedy_densest(H)
        assert (res.nodes, res.density, res.factor) == reference_greedy(H), ("pool", seed)


def test_greedy_computes_no_core_numbers(monkeypatch):
    # the (count, id) order already visits the core groups in ascending order
    def refuse(H):
        raise AssertionError("greedy_densest called peel")

    monkeypatch.setattr(densest, "peel", refuse)
    for seed in range(10):
        H = with_wide_edge(random_hypergraph(10, 14, 2, 4, seed), seed)
        res = greedy_densest(H)
        assert (res.nodes, res.density, res.factor) == reference_greedy(H), seed


def test_two_uniform_factor_is_two():
    H = random_hypergraph(10, 15, 2, 2, 4)
    assert greedy_densest(H).factor == 2


def test_flow_probe_exact_without_shared_pairs():
    # pairwise-disjoint hyperedges: the flow answer is conclusive both ways
    H = hg("a b c\nd e\nf g h\n")
    opt = brute_force_densest(H).density
    for eta in (opt - Fraction(1, 7), opt, opt + Fraction(1, 7)):
        g, S = _flow_probe(H, eta)
        assert (g > eta * len(S)) == (opt > eta), eta


def test_exact_handles_shared_pairs():
    # two hyperedges sharing the pair {a, b}: the closure network overcounts
    # the pair, so the exact route answers by enumeration
    H = hg("a b c\na b d\na b e\nf g\n")
    assert exact_densest(H).density == brute_force_densest(H).density


def test_exact_enumerates_shared_pairs_without_a_probe(fig_five, monkeypatch):
    def refuse(H, eta):
        raise AssertionError("exact_densest probed an input with shared pairs")

    monkeypatch.setattr(densest, "_flow_probe", refuse)
    assert fig_five.d_pair == 2
    res = exact_densest(fig_five)
    assert (res.density, res.probes, res.method) == (Fraction(16, 5), 0, "exact")
    assert res.bracket == (res.density, res.density)


def test_min_cut_edge_layer_is_strongly_induced(fig_five):
    # g is summed over the hyperedge vertices the last BFS reaches, which
    # must be exactly the hyperedges inside S, each counted once even where
    # it shares a pair (d_pair = 2); the added tail stays outside S
    tailed = hg("a b e\na c d\nc d e\ne f\nf g\n")
    for H in (fig_five, tailed):
        assert H.d_pair == 2
        g, S = _flow_probe(H, Fraction(3))
        assert S == set(range(5))
        assert g == sum(len(e) * (len(e) - 1) for e in edges(H) if set(e) <= S)


def pair_disjoint(rng, n, m, card_min, card_max):
    """Up to m hyperedges on n nodes, no two sharing a node pair (d_pair = 1),
    by rejection: a draw that shares a pair with a kept hyperedge is skipped."""
    used, edges = set(), []
    for _ in range(20 * m):
        e = sorted(rng.sample(range(n), rng.randint(card_min, card_max)))
        pairs = set(combinations(e, 2))
        if not pairs & used:
            used |= pairs
            edges.append([f"v{v}" for v in e])
            if len(edges) == m:
                break
    return build(edges)[0]


def test_exact_path_takes_one_probe():
    # the whole path is already densest, so the first probe is negative
    H = hg("".join(f"p{i} p{i + 1}\n" for i in range(199)))
    res = exact_densest(H)
    assert (res.probes, res.density, len(res.nodes)) == (1, Fraction(199, 100), 200)


def test_exact_probes_on_pair_disjoint_inputs():
    # the benchmark's linear shape: 5n/2 hyperedges of 2 to 4 members
    for seed in range(20):
        rng = random.Random(seed)
        n = 40 + 3 * seed
        H = pair_disjoint(rng, n, 5 * n // 2, 2, 4)
        assert 1 <= exact_densest(H).probes <= 3, seed


def test_exact_result_certified_by_a_negative_probe():
    # with d_pair = 1 the flow probe is exact both ways, so a negative probe
    # at the returned density proves it optimal on inputs too large to
    # enumerate; sparse draws make the iteration take several steps
    probes = []
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(10, 80)
        H = pair_disjoint(rng, n, rng.randint(5, 2 * n), 2, 4)
        res = exact_densest(H)
        probes.append(res.probes)
        g, S = _flow_probe(H, res.density)
        assert not g > res.density * len(S), seed
        assert res.bracket == (res.density, res.density)
        assert volume_density(H, res.nodes) == res.density
    assert max(probes) >= 3  # some input took two denser witnesses


def test_other_routes_report_no_probes(fig_five):
    assert greedy_densest(fig_five).probes == brute_force_densest(fig_five).probes == 0


@st.composite
def small_hypergraphs(draw, shared_pair):
    """At most 12 nodes.  With shared_pair, one more hyperedge repeats a node
    pair of the first; without, every draw that shares a node pair with an
    earlier hyperedge is skipped, so d_pair = 1."""
    n = draw(st.integers(3, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.sets(node, min_size=2, max_size=4), min_size=1, max_size=12))
    if shared_pair:
        a, b = sorted(edges[0])[:2]
        edges.append({a, b, draw(node.filter(lambda x: x not in (a, b)))})
    else:
        used, kept = set(), []
        for e in edges:
            pairs = set(combinations(sorted(e), 2))
            if not pairs & used:
                used |= pairs
                kept.append(e)
        edges = kept
    return build([[str(v) for v in sorted(e)] for e in edges])[0]


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(shared_pair=False))
def test_exact_matches_brute_without_shared_pairs(H):
    assert H.d_pair == 1
    res = exact_densest(H)
    assert res.density == brute_force_densest(H).density
    assert res.bracket == (res.density, res.density)
    assert volume_density(H, res.nodes) == res.density


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(shared_pair=False))
def test_flow_probe_exact_on_pair_disjoint_inputs(H):
    # d_pair = 1: the probe answers both ways, a positive answer's witness is
    # denser than eta, and g is the witness's volume
    opt = brute_force_densest(H).density
    for eta in (opt - Fraction(1, 7), opt, opt + Fraction(1, 7)):
        if eta <= 0:
            continue
        g, nodes = _flow_probe(H, eta)
        denser = g > eta * len(nodes)
        assert denser == (opt > eta), eta
        assert g == (volume_density(H, nodes) * len(nodes) if nodes else 0), eta
        if denser:
            assert volume_density(H, nodes) > eta, eta


@settings(max_examples=100, deadline=None)
@given(small_hypergraphs(shared_pair=True))
def test_exact_matches_brute_with_shared_pairs(H):
    assume(H.d_pair > 1)  # not when the extra hyperedge repeats the first
    res = exact_densest(H)
    assert res.density == brute_force_densest(H).density
    assert res.bracket == (res.density, res.density)
    assert volume_density(H, res.nodes) == res.density

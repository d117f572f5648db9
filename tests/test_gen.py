import math
import random

import pytest

from hypercore import (
    GuardError,
    InputError,
    clique_expansion,
    clique_graph_core,
    model,
    peel,
    random_hypergraph,
)
from conftest import by_label, hg, refuse_large_samples, with_wide_edge
from oracles import edges, naive_core_oracle, oracle_k_core_sets


def test_forced_single_edge():
    H = random_hypergraph(3, 1, 3, 3, 0)
    assert edges(H) == [(0, 1, 2)]


def test_determinism():
    a = random_hypergraph(20, 30, 2, 4, 7)
    b = random_hypergraph(20, 30, 2, 4, 7)
    assert edges(a) == edges(b) and a.labels == b.labels


def test_negative_seed_has_its_own_stream():
    # random.Random(-k) is random.Random(k); the generator must tell them apart
    for k in range(1, 21):
        neg, pos = (random_hypergraph(30, 20, 2, 4, seed) for seed in (-k, k))
        assert edges(neg) != edges(pos), k


def test_infeasible_request_rejected():
    with pytest.raises(InputError):
        random_hypergraph(4, 100, 2, 2, 0)


def test_feasibility_sum_stops_at_m(monkeypatch):
    # the full sum over 2..20000 does not finish in a minute; a request for
    # one edge needs a single binomial
    comb, calls = math.comb, []

    def counted(n, k):
        calls.append(k)
        if len(calls) > 3:
            raise AssertionError("feasibility bound kept summing")
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counted)
    monkeypatch.setattr(model, "PAIR_ROW_GUARD", 1)  # stop before any draw
    with pytest.raises(GuardError):
        random_hypergraph(20000, 1, 2, 20000, 0)
    assert calls == [2]
    calls.clear()
    with pytest.raises(InputError, match="m=12 exceeds the 11 distinct edges possible"):
        random_hypergraph(4, 12, 2, 4, 0)
    assert calls == [2, 3, 4]


def test_pair_table_guard_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("random edges drawn")

    monkeypatch.setattr(model, "PAIR_ROW_GUARD", 119)
    monkeypatch.setattr(random, "Random", no_draw)
    with pytest.raises(GuardError, match="at least 120 pair rows > 119"):
        random_hypergraph(10, 20, 3, 4, 0)
    monkeypatch.undo()
    # at the bound the request goes through (all edges have card_min members)
    monkeypatch.setattr(model, "PAIR_ROW_GUARD", 120)
    assert len(edges(random_hypergraph(10, 20, 3, 3, 0))) == 20


def test_drawn_cardinality_guarded_before_sampling(monkeypatch):
    # card_min passes the guard; a drawn cardinality near 10**8 must not
    refuse_large_samples(monkeypatch)
    with pytest.raises(GuardError, match="pair-table guard: at least"):
        random_hypergraph(10**8, 1, 2, 10**8 - 1, 0)
    with pytest.raises(GuardError, match="pair-table guard: at least"):
        random_hypergraph(10**6, 50, 2, 10**6, 3)


def test_pair_row_guard_refuses_what_build_would(monkeypatch):
    # under a tight guard a request is refused exactly when the unguarded
    # draw has too many pair rows, and is otherwise drawn unchanged; a
    # redrawn duplicate is not counted
    rng = random.Random(0)
    for seed in range(400):
        n = rng.randint(3, 8)
        card_min = rng.randint(2, n)
        card_max = rng.randint(card_min, n)
        m = rng.randint(1, min(6, math.comb(n, card_max)))
        H = random_hypergraph(n, m, card_min, card_max, seed)
        rows = sum(len(e) * (len(e) - 1) for e in edges(H))
        for guard in (rows - 1, rows):
            monkeypatch.setattr(model, "PAIR_ROW_GUARD", guard)
            if guard < rows:
                with pytest.raises(GuardError):
                    random_hypergraph(n, m, card_min, card_max, seed)
            else:
                assert edges(random_hypergraph(n, m, card_min, card_max, seed)) == edges(H)
        monkeypatch.undo()


def test_bad_cardinality_range():
    with pytest.raises(InputError):
        random_hypergraph(3, 1, 2, 5, 0)


def test_edges_distinct_and_in_range():
    H = random_hypergraph(15, 40, 2, 5, 3)
    assert len(set(edges(H))) == len(edges(H)) == 40
    assert all(2 <= len(e) <= 5 for e in edges(H))


def test_oracle_pair_edge():
    assert naive_core_oracle(hg("a b\n")).core == [1, 1]


def test_oracle_triple(single_triple):
    assert naive_core_oracle(single_triple).core == [2, 2, 2]


def test_oracle_fixture(fig_five):
    assert naive_core_oracle(fig_five).core == [2] * 5


def test_oracle_guard():
    with pytest.raises(GuardError):
        naive_core_oracle(random_hypergraph(300, 400, 2, 3, 0))


def test_oracle_sets_nested(fig_five):
    sets = oracle_k_core_sets(fig_five)
    for small, big in zip(sets[1:], sets):
        assert small <= big


def test_clique_expansion_structure(fig_five):
    G = clique_expansion(fig_five)
    a, e = fig_five.label_to_id["a"], fig_five.label_to_id["e"]
    assert G.degree(a) == 4 and G.degree(e) == 4
    assert G.degree(fig_five.label_to_id["b"]) == 2


def test_clique_expansion_is_two_uniform_on_same_labels(fig_five):
    G = clique_expansion(fig_five)
    assert G.labels == fig_five.labels
    assert all(len(e) == 2 for e in edges(G))
    assert sorted(edges(G)) == sorted(
        (v, u) for v in range(fig_five.n) for u in fig_five.neighbors(v) if v < u)


def test_clique_core_triangle(single_triple):
    assert clique_graph_core(single_triple).core == [2, 2, 2]


def test_clique_core_fixture(fig_five):
    # b (degree 2) peels first; the other four form a 3-core of the
    # pairwise expansion, whereas every neighborhood core number is 2
    assert by_label(fig_five, clique_graph_core(fig_five).core) == {
        "a": 3, "b": 2, "c": 3, "d": 3, "e": 3,
    }


def test_clique_core_differs_from_neighborhood_core():
    # the pair adjacency from {x,a,b} survives weak induction after x peels
    H = hg("x a b\na c\na d\nb c\nb d\nc d\n")
    assert by_label(H, clique_graph_core(H).core) == {
        "x": 2, "a": 3, "b": 3, "c": 3, "d": 3,
    }
    assert by_label(H, peel(H).core) == dict.fromkeys("xabcd", 2)


def test_clique_core_matches_oracle_on_expansion():
    # graph cores straight from the definition, on the 2-uniform expansion;
    # every other input adds a hyperedge of 8 to 12 members, a large clique
    for seed in range(40):
        H = random_hypergraph(10 + seed % 8, 12 + seed % 10, 2, 4, seed)
        if seed % 2 == 0:
            H = with_wide_edge(H, seed)
        G = clique_expansion(H)
        assert clique_graph_core(H).core == naive_core_oracle(G).core, seed

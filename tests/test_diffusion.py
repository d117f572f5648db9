import random
from fractions import Fraction

import pytest

from hypercore import (
    GuardError,
    InputError,
    intervention_delete,
    random_hypergraph,
    sir_expected_spread,
    sir_run,
)
from conftest import hg


def test_beta_zero_only_seed(path3):
    out = sir_run(path3, 0, beta=0.0, rng_seed=1)
    assert out.spread == 1 and out.infected == {0}
    assert out.infection_time == {0: 0}


def test_beta_one_reaches_everything(path3):
    out = sir_run(path3, 0, beta=1.0, rng_seed=1)
    assert out.spread == 3
    # infection times are hop distances from the seed
    assert out.infection_time == {0: 0, 1: 1, 2: 2}


def test_beta_out_of_range(path3):
    with pytest.raises(InputError):
        sir_run(path3, 0, beta=1.5)


def test_deterministic_given_seed(path3):
    a = sir_run(path3, 0, beta=0.4, rng_seed=7)
    b = sir_run(path3, 0, beta=0.4, rng_seed=7)
    assert a.infected == b.infected and a.infection_time == b.infection_time


def test_monotone_in_beta(path3):
    for rs in range(50):
        prev: set = set()
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            cur = sir_run(path3, 0, beta=beta, rng_seed=rs).infected
            assert prev <= cur, (rs, beta)
            prev = cur


def test_expected_spread_endpoints(path3):
    assert sir_expected_spread(path3, 0, Fraction(0)) == 1
    assert sir_expected_spread(path3, 0, Fraction(1)) == 3


def test_expected_spread_path_half(path3):
    assert sir_expected_spread(path3, 0, Fraction(1, 2)) == Fraction(7, 4)


def test_expected_spread_guard():
    H = random_hypergraph(20, 30, 2, 4, 2)
    with pytest.raises(GuardError):
        sir_expected_spread(H, 0, Fraction(1, 2))


def test_monte_carlo_matches_enumeration(path3):
    runs = 20000
    mean = sum(
        sir_run(path3, 0, beta=0.5, rng_seed=i).spread for i in range(runs)
    ) / runs
    # sd of the spread distribution is sqrt(11/16); allow 4 standard errors
    assert abs(mean - 1.75) < 4 * (11 / 16) ** 0.5 / runs**0.5


def test_intervention_none(fig_five):
    H2 = intervention_delete(fig_five, [0, 1, 2], 0)
    assert H2.n == fig_five.n and len(H2.edges) == len(fig_five.edges)


def test_intervention_deletes_incident_edges(fig_five):
    e = fig_five.label_to_id["e"]
    H2 = intervention_delete(fig_five, [e], 1)
    assert sorted(H2.labels) == ["a", "c", "d"]  # b loses its only edge too
    assert len(H2.edges) == 1


def test_intervention_can_empty(single_triple):
    H2 = intervention_delete(single_triple, [0], 1)
    assert H2.n == 0 and H2.edges == []


def test_intervention_keeps_member_labels():
    rng = random.Random(0)
    for seed in range(30):
        H = random_hypergraph(12, 15, 2, 4, seed)
        ranked = rng.sample(range(H.n), H.n)
        k = rng.randint(0, H.n)
        H2 = intervention_delete(H, ranked, k)
        doomed = {H.labels[v] for v in ranked[:k]}
        kept = {frozenset(H.labels[v] for v in e) for e in H.edges}
        kept = {e for e in kept if not e & doomed}
        assert {frozenset(H2.labels[v] for v in e) for e in H2.edges} == kept
        assert not doomed & set(H2.labels)

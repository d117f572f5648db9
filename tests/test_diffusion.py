import copy
import random
from collections import deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercore import (
    GuardError,
    Hypergraph,
    InputError,
    LocalCoreOptions,
    build,
    clique_expansion,
    degree_core,
    diffusion,
    e_peel,
    exact_densest,
    greedy_densest,
    intervention_delete,
    kd_decompose,
    local_core,
    peel,
    random_hypergraph,
    sir_run,
    volume_density,
)
from hypercore.diffusion import _GAMMA, _MASK
from conftest import hg
from oracles import attempt_draw, edges, sir_expected_spread, splitmix64


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
    for beta in (1.5, 5, -0.5, float("nan")):
        with pytest.raises(InputError, match=r"beta must be in \[0, 1\]"):
            sir_run(path3, 0, beta=beta)
    for beta in (Fraction(5), 1.5, float("nan"), float("inf")):
        with pytest.raises(InputError, match=r"beta must be in \[0, 1\], got"):
            sir_expected_spread(path3, 0, beta)


@pytest.mark.parametrize("beta", ["0.5", None, 0.5j, 1 + 0j])
def test_beta_that_is_no_real_number_refused(path3, beta):
    with pytest.raises(InputError, match="beta must be a real number"):
        sir_run(path3, 0, beta=beta)


@pytest.mark.parametrize("max_steps", ["3", None, 2.5, 3.0])
def test_max_steps_that_is_no_integer_refused(path3, max_steps):
    # unchecked, 2.5 runs 3 steps (step < 2.5)
    with pytest.raises(InputError, match="max_steps must be an integer"):
        sir_run(path3, 0, beta=1.0, max_steps=max_steps)
    assert sir_run(path3, 0, beta=1.0, max_steps=np.int64(1)).infection_time == {0: 0, 1: 1}


@pytest.mark.parametrize("rng_seed", [1.5, None, "7", 7.0])
def test_rng_seed_that_is_no_integer_refused(path3, rng_seed):
    # unchecked, "7" makes exactly the draws of 7, since str("7") == str(7)
    with pytest.raises(InputError, match="rng_seed must be an integer"):
        sir_run(path3, 0, beta=0.5, rng_seed=rng_seed)
    with pytest.raises(InputError, match="rng_seed must be an integer"):
        diffusion.check_rng_seed(rng_seed)


def test_integer_rng_seeds_keep_their_draws():
    H = random_hypergraph(30, 60, 2, 4, 5)
    for rs in (0, 7, -3, 2**70):
        out = sir_run(H, 0, 0.5, rng_seed=rs).infection_time
        assert out == hop_distances(H, 0, 0.5, rs)
        if -2**63 <= rs < 2**63:
            assert list(sir_run(H, 0, 0.5, rng_seed=np.int64(rs)).infection_time.items()) \
                == list(out.items())


def test_negative_max_steps_refused(path3):
    with pytest.raises(InputError, match="max_steps must be >= 0, got -4"):
        sir_run(path3, 0, beta=1.0, max_steps=-4)
    assert sir_run(path3, 0, beta=1.0, max_steps=0).spread == 1


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
    rng = random.Random(0)
    for i in range(200):
        H = random_hypergraph(rng.randint(5, 15), rng.randint(1, 20), 2, 4, i)
        seed, rs = rng.randrange(H.n), rng.randint(-10**20, 10**20)
        prev = set()
        for beta in sorted(rng.random() for _ in range(5)) + [1.0]:
            cur = sir_run(H, seed, beta=beta, rng_seed=rs).infected
            assert prev <= cur, (i, beta)
            prev = cur
        assert prev == _reachable(H, seed)


def _reachable(H, seed):
    seen, todo = {seed}, [seed]
    while todo:
        for v in H.neighbors(todo.pop()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def test_pinned_draws():
    """The draw is fixed: a change to the hash or the run key fails here."""
    assert attempt_draw(0, 0, 1) == 0x27BE7357AB630850
    assert attempt_draw(-7, 3, 2) == 0x384C2942999EEA3B
    assert attempt_draw(2**64 + 5, 1, 0) == 0xAB39DBFE801E35AC


def test_splitmix64_reference_outputs():
    # the first three outputs of the reference splitmix64 generator from state 0
    outs = [splitmix64(i * _GAMMA & _MASK) for i in (1, 2, 3)]
    assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def hop_distances(H, seed, beta, rs, max_steps=100):
    """Hop distances from seed over the directed contacts whose draw fires,
    cut at max_steps."""
    threshold = int(beta * 2**53) << 11
    dist = {seed: 0}
    queue = deque([seed])
    while queue:
        u = queue.popleft()
        if dist[u] == max_steps:
            continue
        for v in H.neighbors(u):
            if v not in dist and attempt_draw(rs, u, v) < threshold:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@settings(max_examples=150, deadline=None)
@given(
    st.integers(5, 40), st.integers(0, 10**6),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
    st.integers(-2**70, 2**70), st.integers(0, 6), st.data(),
)
def test_run_is_bfs_on_the_percolated_graph(n, gseed, beta, rs, max_steps, data):
    """Infection times are the hop distances from the seed over the directed
    contacts whose draw fires, cut at max_steps; visiting order plays no part.

    The graphs reach frontiers of BULK_FRONTIER nodes, so a default run mixes
    scalar and numpy steps; each run is repeated with every step in numpy,
    and with every step in numpy and BULK_SLICE at 1 to 3, so that a step
    reads its frontier in runs of at most three nodes, some of none."""
    H = random_hypergraph(n, data.draw(st.integers(1, 3 * n)), 2, 4, gseed)
    seed = data.draw(st.integers(0, H.n - 1))
    dist = hop_distances(H, seed, beta, rs, max_steps)
    forms = [(diffusion.BULK_FRONTIER, diffusion.BULK_SLICE),
             (1, diffusion.BULK_SLICE), (1, data.draw(st.integers(1, 3)))]
    for bulk_frontier, bulk_slice in forms:
        with mock.patch.multiple(diffusion, BULK_FRONTIER=bulk_frontier, BULK_SLICE=bulk_slice):
            out = sir_run(H, seed, beta, max_steps=max_steps, rng_seed=rs)
        assert out.infection_time == dist, (bulk_frontier, bulk_slice)
        assert out.infected == set(dist) and out.spread == len(dist)


def test_bulk_and_scalar_steps_agree_in_infection_order():
    # the numpy step marks targets in the scalar loop's order, so even the
    # order of infection_time's keys is the same in both forms
    rng = random.Random(3)
    for i in range(40):
        H = random_hypergraph(60, 120, 2, 4, i)
        seed, rs, beta = rng.randrange(H.n), rng.randint(-2**70, 2**70), rng.random()
        with mock.patch.object(diffusion, "BULK_FRONTIER", 10**9):
            scalar = sir_run(H, seed, beta, rng_seed=rs).infection_time
        with mock.patch.object(diffusion, "BULK_FRONTIER", 1):
            bulk = sir_run(H, seed, beta, rng_seed=rs).infection_time
        assert list(bulk.items()) == list(scalar.items())
        assert sir_run(H, seed, beta, rng_seed=rs).infection_time == scalar


@pytest.mark.parametrize("beta", [0.3, 0.7, 1.0])
def test_wide_steps_read_in_runs_keep_the_scalar_order(beta):
    """A 400-member hyperedge plus 400 pendant pairs, at default settings: a
    numpy step holds up to 160,400 contacts, more than BULK_SLICE, and reads
    them in runs of whole nodes.  Infection times, key order included, equal
    the scalar loop's and the hop distances over the firing contacts."""
    H, _ = build([[f"w{i}" for i in range(400)]] + [[f"w{i}", f"p{i}"] for i in range(400)])
    contacts = []
    bulk_step = diffusion._bulk_step

    def counted(H, frontier, *args):
        contacts.append(int(np.diff(H.nbr_offsets)[frontier].sum()))
        return bulk_step(H, frontier, *args)

    for rs in range(3):
        for seed in (0, H.n - 1):  # a member of the wide hyperedge, a pendant
            with mock.patch.object(diffusion, "_bulk_step", counted):
                bulk = sir_run(H, seed, beta, rng_seed=rs).infection_time
            with mock.patch.object(diffusion, "BULK_FRONTIER", 10**9):
                scalar = sir_run(H, seed, beta, rng_seed=rs).infection_time
            assert list(bulk.items()) == list(scalar.items())
            assert bulk == hop_distances(H, seed, beta, rs)
    assert max(contacts) > diffusion.BULK_SLICE


def _shared_targets():
    """Seed s reaches six hubs; every hub reaches each of eight targets, and
    every target each of five leaves, so two numpy steps find each target
    (and leaf) from several frontier nodes."""
    hubs = [f"h{i}" for i in range(6)]
    targets = [f"t{j}" for j in range(8)]
    leaves = [f"l{k}" for k in range(5)]
    return build([["s", h] for h in hubs] + [[h, t] for h in hubs for t in targets]
                 + [[t, x] for t in targets for x in leaves])[0]


@pytest.mark.parametrize("bulk_slice", [1, 2, 3, 2**16])
def test_shared_targets_keep_their_first_attempt(bulk_slice):
    """Frontier nodes that reach the same targets, within one run of a step
    (BULK_SLICE 2**16) and across runs (BULK_SLICE 1 to 3): every step in
    numpy gives the scalar loop's infection times, key order included, and
    the hop distances over the firing contacts."""
    H = _shared_targets()
    rng = random.Random(bulk_slice)
    bulk_step = diffusion._bulk_step

    def distinct(H, frontier, *args):
        # each target is in the next frontier once, however many reach it
        newly = bulk_step(H, frontier, *args)
        assert len(set(newly)) == len(newly)
        return newly

    for beta in [0.0, 1.0] + [rng.random() for _ in range(12)]:
        for rs in range(4):
            with mock.patch.multiple(diffusion, BULK_FRONTIER=1, BULK_SLICE=bulk_slice,
                                     _bulk_step=distinct):
                bulk = sir_run(H, H.label_to_id["s"], beta, rng_seed=rs).infection_time
            with mock.patch.object(diffusion, "BULK_FRONTIER", 10**9):
                scalar = sir_run(H, H.label_to_id["s"], beta, rng_seed=rs).infection_time
            assert list(bulk.items()) == list(scalar.items()), (beta, rs)
            assert bulk == hop_distances(H, H.label_to_id["s"], beta, rs)
            assert beta < 1 or len(bulk) == H.n


@pytest.mark.parametrize("run_key", [0, 1, 2**64 - 1, 0x0123456789ABCDEF])
def test_node_keys_are_the_scalar_keys(run_key):
    # 2**64 - 1 + (u + 1) * GAMMA wraps mod 2**64 for every u
    gammas, keys = diffusion._node_keys(run_key, 50)
    assert gammas.dtype == keys.dtype == np.uint64
    assert gammas.tolist() == [(u + 1) * _GAMMA % 2**64 for u in range(50)]
    assert keys.tolist() == [splitmix64((run_key + (u + 1) * _GAMMA) % 2**64) for u in range(50)]


@pytest.mark.parametrize("H", [
    random_hypergraph(60, 150, 2, 2, 1),  # d_pair = 1: exact densest probes
    random_hypergraph(16, 30, 2, 4, 1),  # shared pairs: exact densest enumerates
])
def test_routes_leave_the_hypergraph_unchanged(H):
    """Every slot holds the object it held after build, with the same
    contents, once every route has run on the hypergraph."""
    built = {name: getattr(H, name) for name in Hypergraph.__slots__}
    contents = copy.deepcopy(built)
    peel(H)
    e_peel(H)
    for threads in (1, 2):
        local_core(H, LocalCoreOptions(threads=threads))
    kd_decompose(H)
    degree_core(H)
    greedy_densest(H)
    exact_densest(H)
    volume_density(H, range(H.n))
    clique_expansion(H)
    for cutoff in (10**9, 1):  # every step scalar, then every step in numpy
        with mock.patch.object(diffusion, "BULK_FRONTIER", cutoff):
            sir_run(H, 0, 1.0, rng_seed=1)
    for name, obj in built.items():
        assert getattr(H, name) is obj, name
        if isinstance(obj, np.ndarray):
            assert obj.dtype == contents[name].dtype, name
            assert np.array_equal(obj, contents[name]), name
        else:
            assert obj == contents[name], name


def test_expected_spread_endpoints(path3):
    assert sir_expected_spread(path3, 0, Fraction(0)) == 1
    assert sir_expected_spread(path3, 0, Fraction(1)) == 3


def test_expected_spread_path_half(path3):
    assert sir_expected_spread(path3, 0, Fraction(1, 2)) == Fraction(7, 4)


def test_expected_spread_guard():
    H = random_hypergraph(20, 30, 2, 4, 2)
    with pytest.raises(GuardError):
        sir_expected_spread(H, 0, Fraction(1, 2))


# a 4-cycle: a b, a c, b d, c d.  From a at beta 1/2, b and c are each
# infected with probability 1/2; if both are, both attack d in the same
# step, and d falls with probability 3/4.  The expected spread is 41/16.
CYCLE4 = "a b\na c\nb d\nc d\n"


def test_monte_carlo_matches_enumeration(path3):
    runs = 20000
    # (input, expected spread, variance of the spread) from seed a at beta 1/2
    for H, expected, var in ((path3, Fraction(7, 4), Fraction(11, 16)),
                             (hg(CYCLE4), Fraction(41, 16), Fraction(351, 256))):
        assert sir_expected_spread(H, 0, Fraction(1, 2)) == expected
        mean = sum(sir_run(H, 0, beta=0.5, rng_seed=i).spread for i in range(runs)) / runs
        # allow 4 standard errors
        assert abs(mean - expected) < 4 * (var / runs) ** 0.5, edges(H)


def test_intervention_none(fig_five):
    H2 = intervention_delete(fig_five, [0, 1, 2], 0)
    assert H2.n == fig_five.n and len(edges(H2)) == len(edges(fig_five))


def test_intervention_deletes_incident_edges(fig_five):
    e = fig_five.label_to_id["e"]
    H2 = intervention_delete(fig_five, [e], 1)
    assert sorted(H2.labels) == ["a", "c", "d"]  # b loses its only edge too
    assert len(edges(H2)) == 1


def test_intervention_negative_top_k_refused(fig_five):
    with pytest.raises(InputError):
        intervention_delete(fig_five, [0, 1, 2], -1)


@pytest.mark.parametrize("top_k", [2.5, "1", None])
def test_intervention_top_k_that_is_no_integer_refused(fig_five, top_k):
    with pytest.raises(InputError, match="top_k must be an integer"):
        intervention_delete(fig_five, [0, 1, 2], top_k)
    assert intervention_delete(fig_five, [0, 1, 2], np.int64(0)).n == fig_five.n


def test_intervention_can_empty(single_triple):
    H2 = intervention_delete(single_triple, [0], 1)
    assert H2.n == 0 and edges(H2) == []


def test_intervention_keeps_member_labels():
    rng = random.Random(0)
    for seed in range(30):
        H = random_hypergraph(12, 15, 2, 4, seed)
        ranked = rng.sample(range(H.n), H.n)
        k = rng.randint(0, H.n)
        H2 = intervention_delete(H, ranked, k)
        doomed = {H.labels[v] for v in ranked[:k]}
        kept = {frozenset(H.labels[v] for v in e) for e in edges(H)}
        kept = {e for e in kept if not e & doomed}
        assert {frozenset(H2.labels[v] for v in e) for e in edges(H2)} == kept
        assert not doomed & set(H2.labels)

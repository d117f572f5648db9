import random

import pytest
from hypothesis import strategies as st

from hypercore import build, parse_hg, random_hypergraph
from oracles import edges


def hg(text):
    """Build a hypergraph from .hg text, discarding the build report."""
    H, _ = parse_hg(text)
    return H


@pytest.fixture
def fig_five():
    """Five nodes, edges {a,b,e},{a,c,d},{c,d,e}: the canonical fixture where
    the uncorrected h-index recurrence overshoots the true core numbers."""
    return hg("a b e\na c d\nc d e\n")


@pytest.fixture
def triangle_pairs():
    return hg("a b\nb c\na c\n")


@pytest.fixture
def single_triple():
    return hg("a b c\n")


@pytest.fixture
def path3():
    """Pair-edge path a-b-c."""
    return hg("a b\nb c\n")


def ids(H, labels):
    return [H.label_to_id[s] for s in labels]


def by_label(H, array):
    return {H.labels[v]: array[v] for v in range(H.n)}


def with_wide_edge(H, seed):
    """H plus one hyperedge on 8 to 12 of its nodes (H needs at least 8)."""
    rng = random.Random(seed)
    wide = rng.sample(H.labels, rng.randint(8, min(12, H.n)))
    return build([[H.labels[v] for v in e] for e in edges(H)] + [wide])[0]


def scan_pool():
    """(seed, H) for 200 small random hypergraphs of at most 4-member
    hyperedges, most with shared pairs; every third one of at least 8 nodes
    gets one added wide hyperedge."""
    for seed in range(200):
        H = random_hypergraph(10 + seed % 30, 5 + seed % 40, 2, 2 + seed % 3, seed)
        if seed % 3 == 0 and H.n >= 8:
            H = with_wide_edge(H, seed)
        yield seed, H


def refuse_large_samples(monkeypatch):
    """Make random.Random.sample fail on more than 10,000 members, so a test
    shows a guard refused before an unbounded draw."""
    sample = random.Random.sample

    def guarded(rng, population, k, **kwargs):
        if k > 10_000:
            raise AssertionError(f"sampled {k} members")
        return sample(rng, population, k, **kwargs)

    monkeypatch.setattr(random.Random, "sample", guarded)


@st.composite
def edge_lists(draw):
    """Label lists over a few nodes (so node pairs repeat), sometimes with
    one extra hyperedge of 40 or more members."""
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.sets(node, min_size=2), max_size=10))
    if draw(st.booleans()):
        wide = set(range(n, n + draw(st.integers(40, 44))))
        edges.append(wide | draw(st.sets(node, max_size=3)))
    return [[str(v) for v in sorted(e)] for e in edges]


@st.composite
def shared_pair_edges(draw):
    """edge_lists() with two more hyperedges, a b and a b c, so that the
    pair a b is held at least twice."""
    return draw(edge_lists()) + [["a", "b"], ["a", "b", "c"]]

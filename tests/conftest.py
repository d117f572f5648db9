import random

import pytest

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

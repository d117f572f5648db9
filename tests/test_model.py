from fractions import Fraction

import pytest

from hypercore import (
    InputError,
    SingletonPolicy,
    build,
    parse_hg,
    serialize_hg,
    volume_density,
)
from conftest import by_label, hg


def test_duplicate_edges_deduped():
    H, report = build([["a", "b", "c"], ["a", "b", "c"]])
    assert len(H.edges) == 1
    assert report.duplicate_edges == [1]


def test_singleton_rejected_by_default():
    with pytest.raises(InputError):
        build([["a", "b"], ["c"]])


def test_singleton_dropped_isolates_node():
    H, report = build([["a", "b"], ["c"]], SingletonPolicy.DROP)
    assert H.n == 2 and len(H.edges) == 1
    assert report.singleton_edges == [1]
    assert report.isolated_labels == ["c"]


def test_empty_edge_rejected():
    with pytest.raises(InputError):
        build([[]])


def test_neighbor_counts_on_five_node_fixture(fig_five):
    assert by_label(fig_five, [fig_five.neighbor_count(v) for v in range(5)]) == {
        "a": 4, "b": 2, "c": 3, "d": 3, "e": 4,
    }


def test_neighbors_sorted_and_exclude_self(fig_five):
    e = fig_five.label_to_id["e"]
    got = [fig_five.labels[u] for u in fig_five.neighbors(e)]
    assert sorted(got) == ["a", "b", "c", "d"]
    assert e not in fig_five.neighbors(e)


def test_degree_vs_neighbor_count():
    H = hg("a b\na b c\n")
    a = H.label_to_id["a"]
    assert H.degree(a) == 2
    assert H.neighbor_count(a) == 2  # multiplicity adds no neighbors


def test_degree_on_fixture(fig_five):
    e = fig_five.label_to_id["e"]
    assert fig_five.degree(e) == 2


def test_strong_induced_drops_partial_edges(fig_five):
    # H[acde] keeps {a,c,d} and {c,d,e}; {a,b,e} is only partly inside
    alive = [lab in "acde" for lab in fig_five.labels]
    a = fig_five.label_to_id["a"]
    assert fig_five.residual_neighbors(a, alive) == set(ids_of(fig_five, "cd"))
    assert volume_density(fig_five, ids_of(fig_five, "acde")) == Fraction(10, 4)


def test_strong_induced_identity(fig_five):
    alive = [True] * fig_five.n
    for v in range(fig_five.n):
        assert sorted(fig_five.residual_neighbors(v, alive)) == fig_five.neighbors(v)
    total = sum(fig_five.neighbor_count(v) for v in range(fig_five.n))
    assert volume_density(fig_five, range(fig_five.n)) == Fraction(total, fig_five.n)


def test_strong_induced_empty(fig_five):
    alive = [False] * fig_five.n
    assert all(fig_five.residual_neighbors(v, alive) == set() for v in range(fig_five.n))


def test_residual_neighbors_drop_by_more_than_one():
    # deleting a node can remove several neighbors at once
    H = hg("a b c\na b d\n")
    alive = [True] * H.n
    b = H.label_to_id["b"]
    assert len(H.residual_neighbors(b, alive)) == 3
    alive[H.label_to_id["a"]] = False
    assert len(H.residual_neighbors(b, alive)) == 0


def test_parse_reports_line_numbers():
    with pytest.raises(InputError, match="line 3"):
        parse_hg("# comment\na b\nc\n")


def test_parse_skips_comments_and_blanks():
    H, _ = parse_hg("# header\n\na b\n  \nb c\n")
    assert len(H.edges) == 2


def test_round_trip(fig_five):
    H2, _ = parse_hg(serialize_hg(fig_five))
    assert [[fig_five.labels[v] for v in e] for e in fig_five.edges] == [
        [H2.labels[v] for v in e] for e in H2.edges
    ]


def test_labels_first_seen_order():
    H, _ = parse_hg("b a\nc a\n")
    assert H.labels == ["b", "a", "c"]


def test_every_retained_node_has_a_neighbor(fig_five):
    assert all(fig_five.neighbor_count(v) >= 1 for v in range(fig_five.n))


def ids_of(H, labels):
    return [H.label_to_id[ch] for ch in labels]

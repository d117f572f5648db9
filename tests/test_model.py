from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from hypercore import (
    Hypergraph,
    InputError,
    SingletonPolicy,
    build,
    parse_hg,
    serialize_hg,
    volume_density,
)
from hypercore.model import BuildReport, Residual
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


def test_hash_starts_a_comment_only_at_line_start():
    H, _ = parse_hg("# header\n  # indented comment\na b # note\n")
    assert H.labels == ["a", "b", "#", "note"]
    assert H.edges == [(0, 1, 2, 3)]


def test_parse_singleton_after_comments_and_a_duplicate():
    text = "# header\n\na b\n# note\nb a\n  \nc\nc d\n"
    with pytest.raises(InputError, match=r"^line 7: singleton hyperedge \['c'\]$"):
        parse_hg(text)
    H, report = parse_hg(text, SingletonPolicy.DROP)
    assert (report.duplicate_edges, report.singleton_edges) == ([1], [2])
    assert report.isolated_labels == []
    H, report = parse_hg(text.replace("c d", "a d"), SingletonPolicy.DROP)
    assert report.isolated_labels == ["c"]
    assert H.labels == ["a", "b", "d"] and H.edges == [(0, 1), (0, 2)]


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


def test_label_in_no_hyperedge_rejected():
    # build strips such labels; direct construction must refuse them, since
    # the peeling loops assume every node sits in a hyperedge
    with pytest.raises(InputError, match="'c' is in no hyperedge"):
        Hypergraph([(0, 1)], ["a", "b", "c"])
    with pytest.raises(InputError):
        Hypergraph([], ["a"])
    assert Hypergraph([], []).n == 0


@pytest.mark.parametrize("edges", [
    [(0, 0, 1)],  # a repeated member, on which peel and e_peel would disagree
    [(0,)],  # a node with no neighbor
    [(-1, 0)],
    [(0, 5)],  # out of range, not label 'b' in no hyperedge
    [(1, 0)],
    [(0, 1), ()],
])
def test_malformed_edge_rejected(edges):
    with pytest.raises(InputError, match="strictly ascending tuple of at least 2 node ids"):
        Hypergraph(edges, ["a", "b"])


def ids_of(H, labels):
    return [H.label_to_id[ch] for ch in labels]


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


@settings(max_examples=150, deadline=None)
@given(edge_lists())
@example([])
@example([["a", "b", "c"], ["a", "b", "d"], ["a", "b"]])
@example([[str(v) for v in range(42)], ["0", "1"], ["1", "2", "x"]])
def test_pair_table_matches_brute_force(raw):
    H = build(raw)[0] if raw else Hypergraph([], [])
    inc = [[ei for ei, e in enumerate(H.edges) if v in e] for v in range(H.n)]
    assert H.inc_flat == [ei for lst in inc for ei in lst]
    assert H.inc_offsets == list(accumulate(map(len, inc), initial=0))
    mult = Counter(p for e in H.edges for p in permutations(e, 2))
    nbrs = [sorted(u for w, u in mult if w == v) for v in range(H.n)]
    assert H.nbr_flat == [u for lst in nbrs for u in lst]
    assert H.nbr_offsets == list(accumulate(map(len, nbrs), initial=0))
    assert H.d_pair == max(mult.values(), default=0)
    assert H.edge_flat.tolist() == [v for e in H.edges for v in e]
    assert H.edge_starts.tolist() == list(accumulate(map(len, H.edges), initial=0))[:-1]
    # one group per (v, u), holding exactly the hyperedges that contain both
    bounds = H.pair_starts.tolist() + [len(H.pair_edge)]
    groups = {
        (v, H.nbr_flat[g]): sorted(H.pair_edge[bounds[g]:bounds[g + 1]].tolist())
        for v in range(H.n)
        for g in range(H.nbr_offsets[v], H.nbr_offsets[v + 1])
    }
    assert len(groups) == len(H.pair_starts) == len(mult)
    assert groups == {
        (v, u): [ei for ei, e in enumerate(H.edges) if v in e and u in e] for v, u in mult
    }


def _reference_build(edge_lists, policy):
    """The builder written out plainly: intern in first-seen order, keep the
    first copy of each member set, then strip labels in no kept edge."""
    if not edge_lists:
        raise InputError("no hyperedges given")
    first_seen = []
    for tok in chain.from_iterable(edge_lists):
        if tok not in first_seen:
            first_seen.append(tok)
    report = BuildReport()
    kept = []
    for idx, members in enumerate(edge_lists):
        if not members:
            raise InputError(f"edge {idx}: empty hyperedge")
        member_set = set(members)
        if len(member_set) < 2:
            if policy is SingletonPolicy.REJECT:
                raise InputError(f"edge {idx}: singleton hyperedge {list(members)!r}")
            report.singleton_edges.append(idx)
        elif member_set in kept:
            report.duplicate_edges.append(idx)
        else:
            kept.append(member_set)
    labels = [lab for lab in first_seen if any(lab in e for e in kept)]
    report.isolated_labels = [lab for lab in first_seen if lab not in labels]
    edges = [tuple(sorted(labels.index(lab) for lab in e)) for e in kept]
    return labels, edges, report


@st.composite
def raw_edge_lists(draw):
    """Token lists with repeats inside an edge, singletons, duplicate member
    sets in other orders and, rarely, empty lists."""
    token = st.sampled_from(["a", "b", "c", "d", "e", "f", "#", "x1"])
    edges = draw(st.lists(st.lists(token, min_size=1, max_size=5), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if edges:
            copy = draw(st.permutations(draw(st.sampled_from(edges))))
            edges.insert(draw(st.integers(0, len(edges))), list(copy))
    if draw(st.integers(0, 9)) == 0:
        edges.insert(draw(st.integers(0, len(edges))), [])
    return edges


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(raw_edge_lists(), st.sampled_from(SingletonPolicy))
@example([["a", "b"], ["c"]], SingletonPolicy.DROP)
@example([["c"], ["a", "b"], ["b", "a"], ["b", "c", "b"]], SingletonPolicy.DROP)
@example([["b", "a"], ["c", "c"], ["a", "d", "c"], ["e"], ["d", "a"]], SingletonPolicy.DROP)
@example([["a", "a"]], SingletonPolicy.DROP)
@example([["a", "b"], ["b", "b"]], SingletonPolicy.REJECT)
@example([["a", "b"], []], SingletonPolicy.DROP)
@example([], SingletonPolicy.REJECT)
def test_build_matches_reference(raw, policy):
    def built(raw, policy):
        H, report = build(raw, policy)
        return H.labels, H.edges, report

    assert _outcome(built, raw, policy) == _outcome(_reference_build, raw, policy)


def _assert_residual_is_definitional(H, R, alive):
    assert R.alive == alive
    assert R.live == [all(alive[u] for u in e) for e in H.edges]
    for v in range(H.n):
        assert R.neighbors(v) == H.residual_neighbors(v, alive)
        assert R.degree[v] == sum(all(alive[u] for u in e) for e in H.edges if v in e)


@settings(max_examples=120, deadline=None)
@given(edge_lists(), st.data())
@example([], None)
def test_residual_matches_definition_under_deletion(raw, data):
    """After every deletion of a random order, on all of H or on the
    hyperedges strongly induced by a node subset, the incremental residual
    agrees with the member scan and a brute-force live-edge count, and
    delete returns the neighbors before the deletion."""
    H = build(raw)[0] if raw else Hypergraph([], [])
    nodes = data.draw(st.none() | st.sets(st.sampled_from(range(H.n)))) if H.n else None
    if nodes is None:
        R = Residual(H)
        alive = [True] * H.n
    else:
        induced = [ei for ei, e in enumerate(H.edges) if set(e) <= nodes]
        R = Residual(H, induced)
        alive = [any(v in H.edges[ei] for ei in induced) for v in range(H.n)]
    order = data.draw(st.permutations(range(H.n))) if H.n else []
    for v in order:
        _assert_residual_is_definitional(H, R, alive)
        assert R.delete(v) == H.residual_neighbors(v, alive)
        alive[v] = False
    _assert_residual_is_definitional(H, R, alive)

import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate, chain, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hypercore
from hypercore import (
    Hypergraph,
    InputError,
    SingletonPolicy,
    build,
    clique_expansion,
    e_peel,
    greedy_densest,
    intervention_delete,
    load_hg,
    local_core,
    parse_hg,
    peel,
    serialize_hg,
    sir_run,
    volume_density,
)
from hypercore import model
from hypercore.model import BuildReport, Residual, member_lists
from conftest import by_label, edge_lists, hg, shared_pair_edges
from oracles import (build_reference, edges, hypergraph, local_lower_bound, parse_hg_reference,
                     sir_expected_spread)


def test_public_names():
    # the package exports what its routes and callers run; the definitional
    # references live in tests/oracles.py
    assert sorted(hypercore.__all__) == [
        "BuildReport", "ConvergenceReport", "CoreAssignment", "DensestResult",
        "GuardError", "Hypergraph", "HypergraphError", "InputError",
        "KDCoreResult", "LocalCoreOptions", "SingletonPolicy", "SirOutcome",
        "brute_force_densest", "build", "clique_expansion", "clique_graph_core",
        "degree_core", "e_peel", "exact_densest", "greedy_densest",
        "guarantee_factor", "intervention_delete", "kd_decompose", "load_hg",
        "local_core", "naive_graph_h_index", "parse_hg", "peel",
        "random_hypergraph", "serialize_hg", "sir_run", "volume_density",
    ]
    assert [name for name in hypercore.__all__ if not hasattr(hypercore, name)] == []


def test_duplicate_edges_deduped():
    H, report = build([["a", "b", "c"], ["a", "b", "c"]])
    assert len(edges(H)) == 1
    assert report.duplicate_edges == [1]


def test_singleton_rejected_by_default():
    with pytest.raises(InputError):
        build([["a", "b"], ["c"]])


def test_singleton_dropped_isolates_node():
    H, report = build([["a", "b"], ["c"]], SingletonPolicy.DROP)
    assert H.n == 2 and len(edges(H)) == 1
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


def test_queries_return_python_ints(fig_five):
    # json.dumps refuses an np.int64, and SIR's bigint hash would overflow one
    for v in range(fig_five.n):
        nbrs = fig_five.neighbors(v)
        assert type(nbrs) is list and all(type(u) is int for u in nbrs)
        assert type(fig_five.neighbor_count(v)) is int
        assert type(fig_five.degree(v)) is int


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
    assert len(edges(H)) == 2


def test_hash_starts_a_comment_only_at_line_start():
    H, _ = parse_hg("# header\n  # indented comment\na b # note\n")
    assert H.labels == ["a", "b", "#", "note"]
    assert edges(H) == [(0, 1, 2, 3)]


def test_parse_singleton_after_comments_and_a_duplicate():
    text = "# header\n\na b\n# note\nb a\n  \nc\nc d\n"
    with pytest.raises(InputError, match=r"^line 7: singleton hyperedge \['c'\]$"):
        parse_hg(text)
    H, report = parse_hg(text, SingletonPolicy.DROP)
    assert (report.duplicate_edges, report.singleton_edges) == ([1], [2])
    assert report.isolated_labels == []
    H, report = parse_hg(text.replace("c d", "a d"), SingletonPolicy.DROP)
    assert report.isolated_labels == ["c"]
    assert H.labels == ["a", "b", "d"] and edges(H) == [(0, 1), (0, 2)]


def test_round_trip(fig_five):
    H2, _ = parse_hg(serialize_hg(fig_five))
    assert [[fig_five.labels[v] for v in e] for e in edges(fig_five)] == [
        [H2.labels[v] for v in e] for e in edges(H2)
    ]


def label_sets(H):
    return [{H.labels[v] for v in e} for e in edges(H)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.text("ab#\ufeff", min_size=1, max_size=3), min_size=2, max_size=5,
                         unique=True), min_size=1, max_size=8))
@example([["b", "#a"], ["c", "#a"]])
@example([["\ufeffa", "b"]])
def test_round_trip_of_comment_like_labels(rows):
    # a line that would start with a '#' label is led by another member; a
    # hyperedge of '#' labels alone cannot be written
    H = build(rows)[0]
    if any(all(H.labels[v][0] == "#" for v in e) for e in edges(H)):
        with pytest.raises(InputError, match="every label starts with '#'$"):
            serialize_hg(H)
    else:
        assert label_sets(parse_hg(serialize_hg(H))[0]) == label_sets(H)


def test_serialize_refuses_what_parse_would_split():
    H, _ = parse_hg("b #a\nc #a\n")
    assert serialize_hg(H) == "b #a\nc #a\n"
    for bad in ("a b", "", " a", "a\u3000", "a\u2028b", "a\n"):
        with pytest.raises(InputError, match="is empty or holds whitespace$"):
            serialize_hg(Hypergraph([0, 1], [2], [bad, "c"]))
    # parse_hg refuses text with no hyperedge, so there is none to write
    with pytest.raises(InputError, match="empty hypergraph"):
        serialize_hg(Hypergraph([], [], []))


def test_labels_first_seen_order():
    H, _ = parse_hg("b a\nc a\n")
    assert H.labels == ["b", "a", "c"]


def test_every_retained_node_has_a_neighbor(fig_five):
    assert all(fig_five.neighbor_count(v) >= 1 for v in range(fig_five.n))


def test_label_in_no_hyperedge_rejected():
    # build strips such labels; direct construction must refuse them, since
    # the peeling loops assume every node sits in a hyperedge
    with pytest.raises(InputError, match="'c' is in no hyperedge"):
        hypergraph([(0, 1)], ["a", "b", "c"])
    with pytest.raises(InputError):
        hypergraph([], ["a"])
    assert hypergraph([], []).n == 0


def test_repeated_label_rejected():
    # label_to_id would hold fewer labels than nodes, and serialize_hg ->
    # parse_hg would not give the hypergraph back
    with pytest.raises(InputError, match="label 'a' is repeated"):
        hypergraph([(0, 1), (1, 2)], ["a", "a", "b"])


NODE_QUERIES = [
    Hypergraph.neighbors,
    Hypergraph.neighbor_count,
    Hypergraph.degree,
    local_lower_bound,
    lambda H, v: sir_run(H, v, 0.5),
    lambda H, v: sir_expected_spread(H, v, Fraction(1, 2)),
    lambda H, v: volume_density(H, [v]),
    lambda H, v: serialize_hg(intervention_delete(H, [v], 1)),
    lambda H, v: H.residual_neighbors(v, [True] * H.n),
]


@pytest.mark.parametrize("query", NODE_QUERIES)
def test_node_id_out_of_range_rejected(fig_five, query):
    for v in (-1, fig_five.n, 0.5):
        with pytest.raises(InputError, match=f"invalid node id {v}$"):
            query(fig_five, v)


@pytest.mark.parametrize("query", NODE_QUERIES)
def test_numpy_node_id_is_its_int(fig_five, query):
    # an np.int64 seed would overflow the scalar SIR loop's 64-bit products
    for v in range(fig_five.n):
        assert query(fig_five, np.int64(v)) == query(fig_five, v)


def test_load_drops_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.hg"
    p.write_bytes(b"\xef\xbb\xbfa b\nb c\n")
    assert load_hg(str(p))[0].labels == ["a", "b", "c"]
    # a decode error's offset still counts the mark's three bytes
    p.write_bytes(b"\xef\xbb\xbfa b\nc \xff d\n")
    with pytest.raises(InputError, match="not UTF-8 text at byte offset 9$"):
        load_hg(str(p))


def test_parse_drops_one_byte_order_mark():
    assert parse_hg("\ufeffa b\nb c\n")[0].labels == ["a", "b", "c"]
    # only one: a second mark is the start of a label
    assert parse_hg("\ufeff\ufeffa b\n")[0].labels == ["\ufeffa", "b"]
    # line numbers in errors are unchanged
    with pytest.raises(InputError, match="^line 2: singleton"):
        parse_hg("\ufeffa b\nc\n")


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
        hypergraph(edges, ["a", "b"])


@pytest.mark.parametrize("edge_flat, cards", [
    ([0, 1], [3]),  # the cards run past edge_flat
    ([0, 1, 0, 1], [2]),  # edge_flat runs past the cards
    ([0, 1], [3, -1]),  # the right sum, through a negative card
    ([[0, 1]], [2]),
    ([0, 1], [[2]]),
    ([0, 1.7], [2]),  # not truncated to hyperedge (0, 1)
    ([0, 1], [2.9]),  # not truncated to a card of 2
])
def test_arrays_that_do_not_fit_rejected(edge_flat, cards):
    with pytest.raises(InputError, match="must be 1-D"):
        Hypergraph(edge_flat, cards, ["a", "b"])


def ids_of(H, labels):
    return [H.label_to_id[ch] for ch in labels]


@settings(max_examples=150, deadline=None)
@given(edge_lists())
@example([])
@example([["a", "b", "c"], ["a", "b", "d"], ["a", "b"]])
@example([[str(v) for v in range(42)], ["0", "1"], ["1", "2", "x"]])
# one hyperedge of each width from 2 to 12, over 14 nodes
@example([[str((c + j) % 14) for j in range(c)] for c in range(2, 13)])
def test_pair_table_matches_brute_force(raw):
    H = build(raw)[0] if raw else hypergraph([], [])
    members = edges(H)
    inc = [[ei for ei, e in enumerate(members) if v in e] for v in range(H.n)]
    assert H.inc_flat.tolist() == [ei for lst in inc for ei in lst]
    assert H.inc_offsets.tolist() == list(accumulate(map(len, inc), initial=0))
    mult = Counter(p for e in members for p in permutations(e, 2))
    nbrs = [sorted(u for w, u in mult if w == v) for v in range(H.n)]
    assert H.nbr_flat.tolist() == [u for lst in nbrs for u in lst]
    assert H.nbr_offsets.tolist() == list(accumulate(map(len, nbrs), initial=0))
    for csr in (H.inc_flat, H.inc_offsets, H.nbr_flat, H.nbr_offsets,
                H.shared_node, H.shared_holder, H.shared_count):
        assert csr.dtype == np.int64
    assert H.d_pair == max(mult.values(), default=0)
    # the clique expansion is the hypergraph of the pairs v < u on H's labels
    G = clique_expansion(H)
    ref = hypergraph(sorted((v, u) for v, u in mult if v < u), H.labels)
    assert G.labels == ref.labels and G.d_pair == ref.d_pair
    for name in ("edge_flat", "edge_offsets", "inc_flat", "inc_offsets", "nbr_flat",
                 "nbr_offsets", "shared_node", "shared_holder", "shared_count"):
        assert getattr(G, name).tolist() == getattr(ref, name).tolist(), name
    assert H.edge_flat.tolist() == [v for e in members for v in e]
    assert H.edge_offsets.tolist() == list(accumulate(map(len, members), initial=0))
    # in group order, each (v, u) that two or more hyperedges hold: v and
    # exactly the hyperedges that contain both
    assert _stored_shared(H) == [(v, [ei for ei, e in enumerate(members) if v in e and u in e])
                                 for v in range(H.n) for u in nbrs[v] if mult[v, u] > 1]


def _stored_shared(H):
    """H's shared groups in group order, each as (node, sorted holders)."""
    ends = np.cumsum(H.shared_count).tolist()
    return [(v, sorted(H.shared_holder[b - c : b].tolist()))
            for v, c, b in zip(H.shared_node.tolist(), H.shared_count.tolist(), ends)]


@settings(max_examples=100, deadline=None)
@given(edge_lists().filter(bool))
def test_member_lists_match_reference(raw):
    """The members read off the edge CSR are the reference builder's sorted
    id tuples, and the hypergraph holds no second, tuple form."""
    H = build(raw)[0]
    assert [tuple(e) for e in member_lists(H)] == _reference_build(raw, SingletonPolicy.REJECT)[1]
    assert not hasattr(H, "edges")


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
        return H.labels, edges(H), report

    assert _outcome(built, raw, policy) == _outcome(_reference_build, raw, policy)


def _reference_parse(text, policy):
    """The parser written out plainly: str.splitlines, str.split, a line whose
    first token starts with '#' is a comment, then _reference_build with each
    edge index rewritten into its line number."""
    edge_lists, line_nos = [], []
    for ln, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            edge_lists.append(tokens)
            line_nos.append(ln)
    if not edge_lists:
        raise InputError("no hyperedges in input")
    try:
        return _reference_build(edge_lists, policy)
    except InputError as exc:
        head, _, rest = str(exc).partition(": ")
        if head.startswith("edge "):
            raise InputError(f"line {line_nos[int(head[5:])]}: {rest}") from None
        raise


# line ends of str.splitlines (\x0b, \x0c and \x1c are also whitespace to
# str.split), and blanks that end no line; \x85, \u2028, \u00a0 and \u3000
# are not ASCII
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
BLANKS = [" ", "\t", "\u00a0", "\u3000"]


@st.composite
def hg_texts(draw):
    """.hg text with every kind of line end and blank, blank and indented
    comment lines, '#' inside labels, labels repeated within a line,
    duplicates in other orders and singletons."""
    token = st.sampled_from(["a", "b", "c", "d", "a#", "#b", "é"])
    blank = st.text(st.sampled_from(BLANKS), min_size=1, max_size=2)
    lines, edges = [], []
    for kind in draw(st.lists(st.sampled_from(
            ["edge", "edge", "edge", "comment", "blank", "duplicate", "singleton"]), max_size=8)):
        if kind == "duplicate" and edges:
            members = draw(st.permutations(draw(st.sampled_from(edges))))
        elif kind == "singleton":
            members = [draw(token)] * draw(st.integers(1, 2))
        elif kind == "comment":
            members = ["#" + draw(token), draw(token)]
        elif kind == "blank":
            members = []
        else:
            members = draw(st.lists(token, min_size=1, max_size=4))
            edges.append(members)
        line = draw(st.sampled_from(["", draw(blank)])) + "".join(
            m + draw(blank) for m in members)
        lines.append(line + draw(st.sampled_from(LINE_ENDS)))
    return "".join(lines)


@settings(max_examples=500, deadline=None)
@given(hg_texts(), st.sampled_from(SingletonPolicy))
# \x85 ends a line and \u00a0 separates two labels: the tokenizer splits
# the way str does, not the way bytes do
@example("a\u00a0b\x85c d\n", SingletonPolicy.REJECT)
@example("# c\r\n\r\n  # a b\rb a\x0ba\u3000a\u2028a b\n", SingletonPolicy.DROP)
@example("a b\x1cc\u2028", SingletonPolicy.REJECT)
@example(" \t\n# only a comment\n", SingletonPolicy.DROP)
def test_parse_matches_reference(text, policy):
    def parsed(text, policy):
        H, report = parse_hg(text, policy)
        return H.labels, edges(H), report

    assert _outcome(parsed, text, policy) == _outcome(_reference_parse, text, policy)


# every code point str.split splits on (chr(c).isspace()), so all of
# str.splitlines' breaks, plus \r\n, '#' alone and at the start of a label, a
# non-BMP character and a lone surrogate
UNICODE_PIECES = ([chr(c) for c in range(0x3001) if chr(c).isspace()]
                  + ["\r\n", "#", "#a", "a", "b", "c", "\u00e9", "\U0001f600", "\ud800"] * 3)


def _parsed_state(parse, text, policy):
    """Labels, every array of the hypergraph and the report, or the error."""
    try:
        H, report = parse(text, policy)
    except InputError as exc:
        return "InputError", str(exc)
    arrays = [getattr(H, name).tolist() for name in (
        "edge_flat", "edge_offsets", "inc_offsets", "inc_flat", "nbr_offsets", "nbr_flat",
        "shared_node", "shared_holder", "shared_count")]
    return H.n, H.labels, H.label_to_id, H.d_pair, arrays, report


@pytest.mark.parametrize("slice_chars", [model.SLICE_CHARS, 1, 3])
@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(st.sampled_from(UNICODE_PIECES), max_size=40).map("".join),
       st.sampled_from(SingletonPolicy))
@example(False, "a b\r\n\r\nc\r\n", SingletonPolicy.REJECT)
@example(False, "\nc\r", SingletonPolicy.REJECT)
@example(True, "#x\x85 # y\u2029a\u3000b\x1fc\r\rb c\x1c\ud800", SingletonPolicy.DROP)
def test_parse_matches_the_per_line_reference(slice_chars, bom, text, policy):
    # the slices end after any line break, never inside \r\n, so at every
    # slice length the tokens, lines and error line numbers are the per-line
    # parser's
    text = "\ufeff" * bom + text
    with mock.patch.object(model, "SLICE_CHARS", slice_chars):
        got = _parsed_state(parse_hg, text, policy)
    assert got == _parsed_state(parse_hg_reference, text, policy)


def test_character_classes_match_str():
    # the tokenizer's two fixed classes are str.split's whitespace and
    # str.splitlines' breaks; an interpreter that changes either must fail
    # here rather than mis-tokenize
    kind = model._CLASS
    assert kind[-1] == 0  # every code point past the table is neither
    space, breaks = set(), set()
    for c in chain(range(0xD800), range(0xE000, 0x110000)):
        ch = chr(c)
        if ch.isspace():
            space.add(c)
        if len(f"a{ch}b".splitlines()) == 2:
            breaks.add(c)
    assert set(np.flatnonzero(kind).tolist()) == space
    assert set(np.flatnonzero(kind == 2).tolist()) == breaks
    assert len(space) == 29 and max(space) < kind.size - 1
    assert len("a\r\nb".splitlines()) == 2  # \r\n is one break


def test_single_row_widths_skip_the_duplicate_scan():
    """A width that one row holds cannot hold a duplicate, so its row is never
    packed: rows of 20 and 30 ids of 7 bits would each fold to a dense rank."""
    rows = [[f"v{v}", f"v{v + 1}"] for v in range(0, 100, 2)] + [["v1", "v0"]]
    rows += [[f"v{v}" for v in range(20)], [f"v{v}" for v in range(30, 60)]]
    with mock.patch.object(model, "_dense_rank", side_effect=AssertionError):
        H, report = build(rows)
    ref_H, ref_report = build_reference(rows)
    assert report == ref_report and report.duplicate_edges == [50]
    assert H.labels == ref_H.labels and edges(H) == edges(ref_H)


def test_duplicate_rows_by_rank_folds():
    """Rows of 12 ids of 17 bits (2**16 + 20 labels, label vi interned as id
    i): a key holds three ids, so each row folds to its dense rank three
    times.  Rows share long prefixes and differ in late columns, two differ
    only in their first id's top bit, and copies come before, between and
    after their first copy's neighbors in sort order."""
    rng = random.Random(5)
    n = 2**16 + 20
    rows = [[f"v{v}", f"v{v + 1}"] for v in range(0, n, 2)]
    prefix = [f"v{v}" for v in rng.sample(range(n), 11)]
    wide = [prefix[:k] + [f"v{v}" for v in rng.sample(range(n), 12 - k)]
            for k in (11, 11, 11, 9, 6, 3, 0)]
    wide += [prefix + [f"v{v}"] for v in (n - 1, 0, n // 2)]
    tail = [f"v{v}" for v in range(2**16 + 1, 2**16 + 12)]
    wide += [["v0"] + tail, [f"v{2**16}"] + tail]
    for row in list(wide):
        for _ in range(rng.randint(1, 2)):
            wide.insert(rng.randrange(len(wide) + 1), rng.sample(row, len(row)))
    rows += wide
    folds = []
    rank = model._dense_rank
    with mock.patch.object(model, "_dense_rank", lambda key: folds.append(key.size) or rank(key)):
        H, report = build(rows)
    assert folds.count(len(wide)) == 3
    ref_H, ref_report = build_reference(rows)
    assert report == ref_report and len(report.duplicate_edges) == len(wide) - 12
    assert H.labels == ref_H.labels and edges(H) == edges(ref_H)


def test_packed_keys_on_wide_ids():
    """A matching on 2**16 + 10 nodes plus 4-edges that share its pairs: keys
    need 17 bits per id and ids reach n - 1.  The shared groups and CSR
    lists equal dicts built in one pass over the edges."""
    n = 2**16 + 10
    edges = [(v, v + 1) for v in range(0, n, 2)]
    edges += [(0, 1, n - 2, n - 1), (0, 2, 2**16, n - 1), (n - 4, n - 3, n - 2, n - 1)]
    H = hypergraph(edges, [str(v) for v in range(n)])
    inc, pairs = defaultdict(list), defaultdict(list)
    for ei, e in enumerate(edges):
        for v in e:
            inc[v].append(ei)
        for pair in permutations(e, 2):
            pairs[pair].append(ei)
    nbrs = defaultdict(list)
    for v, u in sorted(pairs):
        nbrs[v].append(u)
    assert H.inc_flat.tolist() == [ei for v in range(n) for ei in inc[v]]
    assert H.inc_offsets.tolist() == list(accumulate((len(inc[v]) for v in range(n)), initial=0))
    assert H.nbr_flat.tolist() == [u for v in range(n) for u in nbrs[v]]
    assert H.nbr_offsets.tolist() == list(accumulate((len(nbrs[v]) for v in range(n)), initial=0))
    for csr in (H.inc_flat, H.inc_offsets, H.nbr_flat, H.nbr_offsets):
        assert csr.dtype == np.int64
    assert _stored_shared(H) == [(pair[0], holders) for pair, holders in sorted(pairs.items())
                                 if len(holders) > 1]
    assert H.d_pair == 3


def _assert_residual_is_definitional(H, R, alive):
    members = edges(H)
    assert R.live == [all(alive[u] for u in e) for e in members]
    # per ordered pair: how many hyperedges hold it, one of them, how many live ones
    pairs = Counter(pair for e in members for pair in permutations(e, 2))
    holder = {pair: ei for ei, e in enumerate(members) for pair in permutations(e, 2)}
    holding = Counter(pair for e in members if all(alive[u] for u in e)
                      for pair in permutations(e, 2))
    shared = iter(range(len(R.gcount)))  # gcount holds the shared groups in order
    for v in range(H.n):
        assert R.count[v] == len(H.residual_neighbors(v, alive)), v
        for u in H.neighbors(v):
            if pairs[v, u] > 1:
                live_holding = R.gcount[next(shared)]
            else:  # a private group is live exactly while its one hyperedge is
                live_holding = R.live[holder[v, u]]
            assert live_holding == holding[v, u], (v, u)
    assert next(shared, None) is None


def _assert_pairs_split(H, R):
    """Hyperedge e's shared entries are exactly the gcount indices of the
    ordered pairs of e's members that another hyperedge also holds, and each
    shared group names the node whose neighbor it counts."""
    pairs = Counter(pair for e in edges(H) for pair in permutations(e, 2))
    index = {}  # ordered pair -> its gcount index, for shared pairs
    for v in range(H.n):
        for g in range(H.nbr_offsets[v], H.nbr_offsets[v + 1]):
            if pairs[v, H.nbr_flat[g]] > 1:
                index[v, H.nbr_flat[g]] = len(index)
    assert R.gcount == [pairs[pair] for pair in index]
    assert R.gnode == [v for v, _ in index]
    assert len(R.shared_offsets) == len(edges(H)) + 1
    assert R.shared_offsets[-1] == len(R.shared_flat)
    for ei, e in enumerate(edges(H)):
        entries = R.shared_flat[R.shared_offsets[ei]:R.shared_offsets[ei + 1]]
        assert sorted(entries) == sorted(index[pair] for pair in permutations(e, 2)
                                         if pair in index), e
    if H.d_pair == 1:
        assert not R.gcount and not R.shared_flat


@pytest.mark.parametrize("text", [
    "1 2 4\n2 3 5\n3 4 6\n4 5 7\n5 6 1\n6 7 2\n7 1 3\n",  # the Fano plane
    "a b c d e f\na g\nb g\ng h i\n",
])
def test_pair_disjoint_residual_has_no_shared_entry(text):
    H = hg(text)
    R = Residual(H)
    assert H.d_pair == 1
    assert R.gcount == [] and R.shared_flat == [] and set(R.shared_offsets) == {0}


def test_shared_pair_outlives_its_hyperedge():
    """Killing a b c lowers a and b by 2 and gives each one back for the
    pair a b still holds; deleting a then leaves b with no neighbor."""
    H = hg("a b c\na b\n")
    a, b, c = (H.label_to_id[lab] for lab in "abc")
    R = Residual(H)
    assert R.delete(c) == {a, b}
    assert R.count[a] == R.count[b] == 1
    assert R.gcount == [1, 1]
    R.delete(a)
    assert R.count[b] == 0


def test_shared_groups_are_listed_per_hyperedge():
    """The shared groups are a b, b a, b c and c b: a b c holds all four,
    a b the first two and b c d the last two.  Deleting a kills a b c and
    a b; b and c keep each other through b c d."""
    H = hg("a b c\na b\nb c d\n")
    a, b, c, d = (H.label_to_id[lab] for lab in "abcd")
    R = Residual(H)
    assert R.shared_offsets == [0, 4, 6, 8]
    assert R.shared_flat == [0, 1, 2, 3, 0, 1, 2, 3]
    assert R.gnode == [a, b, b, c]
    R.delete(a)
    assert R.count == [0, 2, 2, 2]


# edge_lists() draws at most 8 + 44 labels
MAX_NODES = 52


@settings(max_examples=120, deadline=None)
@given(edge_lists(), st.permutations(range(MAX_NODES)))
@example([], range(MAX_NODES))
# the pair (0, 1) is in three hyperedges, one of them wide: deleting 9 kills
# the wide edge but leaves 0 and 1 neighbors through the other two
@example([["0", "1", "2"], ["0", "1", "3"], [str(v) for v in range(10)]],
         [9, 3, 2, 0, 1, 4, 5, 6, 7, 8])
def test_residual_matches_definition_under_deletion(raw, order):
    """After every deletion of a random order, the incremental residual's
    live hyperedges agree with the member scan, its live counts per node
    and per pair group with a brute-force count, and delete returns the
    neighbors before the deletion."""
    H = build(raw)[0] if raw else hypergraph([], [])
    R = Residual(H)
    _assert_pairs_split(H, R)
    alive = [True] * H.n
    for v in (v for v in order if v < H.n):
        _assert_residual_is_definitional(H, R, alive)
        assert R.delete(v) == H.residual_neighbors(v, alive)
        alive[v] = False
    _assert_residual_is_definitional(H, R, alive)


@settings(max_examples=100, deadline=None)
@given(shared_pair_edges(), st.permutations(range(MAX_NODES + 3)))
def test_routes_ignore_the_order_of_holders_in_a_pair_group(raw, order):
    """shared_holder lists each shared group's holders in no set order:
    reversed within every group, every route that reads them answers the
    same."""
    H, flipped = build(raw)[0], build(raw)[0]
    assert H.d_pair >= 2
    count = H.shared_count
    ends = np.cumsum(count)
    group = np.repeat(np.arange(count.size), count)
    at = 2 * ends[group] - count[group] - 1 - np.arange(ends[-1])  # start + end - 1 - i
    flipped.shared_holder = H.shared_holder[at]
    assert flipped.shared_holder.tolist() != H.shared_holder.tolist()
    a, b = local_core(H), local_core(flipped)
    assert (a.core, a.counters, a.report) == (b.core, b.counters, b.report)
    for route in (peel, e_peel):
        a, b = route(H), route(flipped)
        assert (a.core, a.counters) == (b.core, b.counters)
    a, b = greedy_densest(H), greedy_densest(flipped)
    assert (a.nodes, a.density) == (b.nodes, b.density)
    R, S = Residual(H), Residual(flipped)
    for v in (v for v in order if v < H.n):
        for slot in Residual.__slots__:
            assert getattr(R, slot) == getattr(S, slot), slot
        assert R.delete(v) == S.delete(v)

from __future__ import annotations

import io
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicollapse import core
from bicollapse.build import load_lower_distance_matrix, load_points
from bicollapse.core import (
    NEVER,
    BifilteredGraph,
    Edge,
    edge_neighborhood,
    graph_from_arrays,
    graph_from_edges,
    read_edge_list,
    write_edge_list,
)
from bicollapse.collapse import collapse_iterated
from bicollapse.domination import _RowStore
from bicollapse.expand import parse_scc2020
from bicollapse.oracle import join, leq, random_grid_graph, subgraph_at
from bicollapse.orders import EdgeOrder

from conftest import A, B, V, W, X, Y, edge_of, make_gap6, make_k3, make_path3, without


def test_join_examples():
    assert join((1, 2), (2, 1)) == (2, 2)
    assert join((0, 0), (0, 0)) == (0, 0)
    assert join((3, 1), NEVER) == NEVER


def test_leq_never():
    assert leq((5.0, 5.0), NEVER)
    assert not leq(NEVER, (5.0, 5.0))
    assert leq(NEVER, NEVER)


def test_join_lattice_properties():
    rng = np.random.default_rng(0)
    grades = [(float(rng.integers(5)), float(rng.integers(5))) for _ in range(30)]
    grades.append(NEVER)
    for a in grades:
        for b in grades:
            j = join(a, b)
            assert join(a, b) == join(b, a)
            assert join(a, a) == a
            assert leq(a, j) and leq(b, j)
            for c in grades:
                assert join(join(a, b), c) == join(a, join(b, c))


def test_graph_from_edges_k3():
    g = make_k3()
    assert g.edge_count() == 3
    assert all(len(g.adj[v]) == 2 for v in range(3))


def test_graph_from_edges_empty():
    g = graph_from_edges(2, [])
    assert g.edge_count() == 0
    for graph in (g, BifilteredGraph(0)):
        arrays = graph.edge_arrays()
        assert len(arrays) == 4 and all(len(x) == 0 for x in arrays)
        assert graph_from_arrays(graph.n, *arrays) == graph


def test_graph_from_edges_duplicate_pair():
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        graph_from_edges(3, [(0, 1, (0.0, 0.0)), (1, 0, (1.0, 1.0))])


def test_graph_from_edges_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        graph_from_edges(2, [(0, 5, (0.0, 0.0))])


def test_grade_of_missing_edge_is_never():
    g = make_path3()
    assert g.grade_of(0, 2) == NEVER
    assert g.grade_of(0, 2) == (math.inf, math.inf)


def test_ids_outside_the_vertex_range_name_no_edge():
    # Row -1 is the last row, which holds the edge (3, 1); the accessors must
    # not read it for (-1, 1).
    pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    g = graph_from_edges(4, [(u, v, (1.0, 1.0)) for u, v in pairs])
    assert g.grade_of(3, 1) == (1.0, 1.0) and g.has_edge(3, 1)
    for u, v in ((-1, 1), (1, -1), (-4, 0), (4, 1), (1, 4)):
        assert g.grade_of(u, v) == NEVER
        assert not g.has_edge(u, v)


def test_edge_neighborhood_k3():
    g = make_k3()
    nbhd = edge_neighborhood(g.adj, edge_of(g, 0, 1))
    assert [(w, entry) for w, entry in nbhd] == [(2, (0.0, 0.0))]


def test_edge_neighborhood_gap6():
    g = make_gap6()
    nbhd = edge_neighborhood(g.adj, edge_of(g, A, B))
    assert [(w, entry) for w, entry in nbhd] == [
        (V, (0.0, 0.0)),
        (W, (0.0, 0.0)),
        (X, (2.0, 0.0)),
        (Y, (0.0, 2.0)),
    ]


def test_edge_neighborhood_path_empty():
    g = make_path3()
    assert edge_neighborhood(g.adj, edge_of(g, 0, 1)) == []


_FEW_FLOATS = st.sampled_from([-0.0, 0.0, 1.0, 2.0])


@st.composite
def _few_grade_graphs(draw):
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    grades = st.tuples(_FEW_FLOATS, _FEW_FLOATS)
    return graph_from_edges(n, [(u, v, draw(grades)) for (u, v), k in zip(pairs, keep) if k])


@settings(max_examples=100, deadline=None)
@given(g=_few_grade_graphs())
def test_edge_neighborhood_matches_reference(g):
    # Random degrees put the shorter row on either endpoint.
    for e in g.edge_list():
        a, b = e.u, e.v
        common = [w for w in range(g.n) if g.has_edge(a, w) and g.has_edge(b, w)]
        nbhd = edge_neighborhood(g.adj, e)
        ga, gb = g.adj[a], g.adj[b]
        assert nbhd == [(w, join(join(ga[w], gb[w]), e.grade)) for w in common]
        ids = [w for w, _ in nbhd]
        assert all(x < y for x, y in zip(ids, ids[1:]))
        at_crit = [w for w in common if leq(ga[w], e.grade) and leq(gb[w], e.grade)]
        assert [w for w, entry in nbhd if entry == e.grade] == at_crit


def test_edge_neighborhood_rejects_missing_edge():
    g = make_path3()
    with pytest.raises(ValueError, match="not in graph"):
        edge_neighborhood(g.adj, Edge(0, 2, (0.0, 0.0)))


def test_subgraph_at_gap6():
    g = make_gap6()
    adj0 = subgraph_at(g, (0.0, 0.0))
    edges0 = {(u, v) for u in range(6) for v in adj0[u] if u < v}
    assert edges0 == {(A, B), (A, V), (B, V), (A, W), (B, W), (V, W)}
    adj_top = subgraph_at(g, (2.0, 2.0))
    assert sum(len(s) for s in adj_top) // 2 == 14


def test_subgraph_below_everything_is_edgeless():
    g = make_gap6()
    adj = subgraph_at(g, (-1.0, -1.0))
    assert all(not s for s in adj)


def test_subgraph_at_monotone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_grid_graph(8, 0.5, rng)
        lo = (float(rng.integers(4)), float(rng.integers(4)))
        hi = join(lo, (float(rng.integers(4)), float(rng.integers(4))))
        adj_lo = subgraph_at(g, lo)
        adj_hi = subgraph_at(g, hi)
        for u in range(g.n):
            assert adj_lo[u] <= adj_hi[u]


def _assert_rows_sorted_symmetric(adj: list[dict]):
    for u, row in enumerate(adj):
        ids = list(row)
        assert ids == sorted(ids)
        for w, grade in row.items():
            assert adj[w][u] == grade


def _assert_sorted_symmetric(g: BifilteredGraph):
    _assert_rows_sorted_symmetric(g.adj)
    pairs = [(e.u, e.v) for e in g.edges()]
    assert pairs == sorted(pairs)
    assert all(u < v for u, v in pairs)


@st.composite
def _graphs_over_spread_ids(draw):
    # Up to 12 vertices with edges among up to 600, most of them isolated;
    # ids above 256, whose ints CPython does not cache, carry edges.
    n = draw(st.integers(0, 600))
    ends = draw(st.lists(st.integers(0, n - 1), max_size=12, unique=True)) if n else []
    pairs = [(u, v) for u in ends for v in ends if u < v and draw(st.booleans())]
    grades = [draw(st.tuples(*[st.sampled_from([0.0, 1.0, 2.5])] * 2)) for _ in pairs]
    return graph_from_edges(n, [(u, v, grade) for (u, v), grade in zip(pairs, grades)])


# Vertex 300's row holds 20 half-edges, lower and upper neighbors both.
_STAR = graph_from_edges(320, [(300, w, (0.0, float(w))) for w in range(290, 311) if w != 300])


@pytest.mark.parametrize("row_slice", [1, 3, core._ROW_SLICE])
@settings(max_examples=60, deadline=None)
@given(g=_graphs_over_spread_ids())
@example(g=BifilteredGraph(0))
@example(g=_STAR)
def test_rows_equal_a_plain_loop(row_slice, g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_ROW_SLICE", row_slice)
        rows = g._rows()
    expected: list[dict] = [{} for _ in range(g.n)]
    for u, v, grade in g.edges():
        expected[u][v] = expected[v][u] = grade
    assert rows == expected
    keys: dict[int, int] = {}
    for u, row in enumerate(rows):
        assert list(row) == sorted(row)
        for w, grade in row.items():
            assert rows[w][u] is grade  # both halves share one tuple
            assert keys.setdefault(w, w) is w  # one key object per vertex


def test_adjacency_invariants_after_removals():
    # The row store of a pass removes both halves of an edge: its rows stay
    # sorted and symmetric, equal to the rows of a graph built without the
    # removed edges, and the graph they came from keeps its own.
    rng = np.random.default_rng(7)
    g = random_grid_graph(10, 0.6, rng)
    _assert_sorted_symmetric(g)
    store = _RowStore(g._rows())
    edges = g.edge_list()
    rng.shuffle(edges)
    gone = edges[: len(edges) // 2]
    for i, e in enumerate(gone):
        store.remove(*((e.u, e.v) if i % 2 else (e.v, e.u)))
        _assert_rows_sorted_symmetric(store.adj)
    assert store.adj == without(g, [(e.u, e.v) for e in gone])._rows()
    assert sum(map(len, store.adj)) == 2 * (len(edges) - len(gone))
    assert g.adj == g._rows() and g.edge_count() == len(edges)


def test_build_order_does_not_matter():
    rng = np.random.default_rng(5)
    sorted_build = random_grid_graph(12, 0.6, rng)
    edges = sorted_build.edge_list()
    shuffled = list(edges)
    random.Random(4).shuffle(shuffled)
    reversed_flipped = [Edge(e.v, e.u, e.grade) for e in reversed(edges)]
    builds = [sorted_build] + [
        graph_from_edges(sorted_build.n, seq) for seq in (shuffled, reversed_flipped)
    ]
    for g in builds:
        assert g == sorted_build
        assert g.edge_list() == edges
        _assert_sorted_symmetric(g)
    # The random order permutes edges(), so replay depends on the row order.
    for mode in ("strong", "full"):
        logs = [
            collapse_iterated(g, EdgeOrder("random", seed=3), mode, 2)[1].removal_log
            for g in builds
        ]
        assert logs[0] == logs[1] == logs[2]
        assert logs[0][0]
    drop = [edges[i] for i in rng.permutation(len(edges))[: len(edges) // 3]]
    stores = [_RowStore(g._rows()) for g in builds]
    for store in stores:
        for e in drop:
            store.remove(e.u, e.v)
            _assert_rows_sorted_symmetric(store.adj)
    assert stores[0].adj == stores[1].adj == stores[2].adj
    reduced = [without(g, [(e.u, e.v) for e in drop]) for g in builds]
    assert reduced[0] == reduced[1] == reduced[2]
    assert reduced[0]._rows() == stores[0].adj
    for g in reduced:
        assert graph_from_arrays(g.n, *g.edge_arrays()) == g


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(1, 1, (0.0, 0.0))], "self-loop"),
        ([(0, 1, (math.nan, 0.0))], "non-finite"),
        ([(0, 1, (0.0, math.inf))], "non-finite"),
        ([(-1, 1, (0.0, 0.0))], "out of range"),
        ([(0, 1, (0.0, 0.0)), (0, 1, (1.0, 1.0))], r"duplicate edge pair \(0, 1\)"),
    ],
)
def test_graph_from_edges_rejects(edges, message):
    with pytest.raises(ValueError, match=message):
        graph_from_edges(3, edges)


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError, match="^vertex count must be non-negative, got -1$"):
        BifilteredGraph(-1)


# Vertex counts for which no int64 array of n + 1 cells can be sized; neither
# is ever allocated, here or by the readers' refusals.
_HUGE_COUNTS = [99999999999999999999, 1 << 62]


@pytest.mark.parametrize("n", _HUGE_COUNTS)
def test_a_vertex_count_too_large_for_an_array_is_refused(n):
    message = f"^vertex count {n} is too large for an array of n \\+ 1 cells$"
    with pytest.raises(ValueError, match=message):
        graph_from_arrays(n, [0], [1], [0.0], [0.0])
    with pytest.raises(ValueError, match=message):
        read_edge_list([f"{n} 1", "0 1 0 0"])


def test_pairs_of_a_huge_vertex_count_compare_and_sort_as_pairs():
    # With n = 2**40 and a = 2**24, a key a * n + hi wraps past 2**64 to hi:
    # it took (a, a + 1) for (0, a + 1), and sorted (0, a + 5) after
    # (a, a + 1).  Nothing of size n is allocated.
    n, a = 1 << 40, 1 << 24
    for w in (a + 1, a + 5):
        g = graph_from_arrays(n, [a, 0], [a + 1, w], [0.0, 1.0], [0.0, 1.0])
        assert g.edge_list() == [Edge(0, w, (1.0, 1.0)), Edge(a, a + 1, (0.0, 0.0))]
    with pytest.raises(ValueError, match=f"^duplicate edge pair \\({a}, {a + 1}\\)$"):
        graph_from_arrays(n, [a, 0, a + 1], [a + 1, a + 1, a], np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("budget, most", [(1, None), (4, None), (4, 2), (100, None), (100, 3)])
def test_blocks_cover_each_row_once_in_greedy_ranges(budget, most):
    cells = [0, 3, 0, 7, 1, 1, 0, 2, 5]
    reach = np.concatenate(([0], np.cumsum(cells)))
    blocks = list(core._blocks(reach, budget, most))
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == len(cells)
    for lo, hi in blocks:
        assert hi - lo == 1 or reach[hi] - reach[lo] <= budget
        assert most is None or hi - lo <= most
        # Each range takes rows while they fit: the next would overflow a bound.
        assert hi == len(cells) or reach[hi + 1] - reach[lo] > budget or hi - lo == most


def test_read_edge_list_keeps_contiguous_columns():
    # Views of the parsed table would stride 32 bytes and keep it alive.
    g = read_edge_list(["4 3", "0 1 0 0", "1 2 0.5 1", "2 3 1 0.5"])
    assert all(x.flags.c_contiguous and x.base is None for x in g.edge_arrays())


def test_edge_arrays_are_read_only_and_shared_by_copies():
    g = random_grid_graph(6, 0.8, np.random.default_rng(2))
    for x in g.edge_arrays():
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0
    assert all(a is b for a, b in zip(g.copy().edge_arrays(), g.edge_arrays()))


def test_graph_from_arrays_copies_the_arrays_its_caller_can_write():
    # Sorted pairs skip the sort, but the graph still keeps copies.
    u, v, s, t = np.array([0, 1]), np.array([1, 2]), np.zeros(2), np.ones(2)
    g = graph_from_arrays(3, u, v, s, t)
    assert not any(np.shares_memory(x, y) for x, y in zip((u, v, s, t), g.edge_arrays()))
    u[0], s[:] = 2, 5.0
    assert g.edge_list() == [Edge(0, 1, (0.0, 1.0)), Edge(1, 2, (0.0, 1.0))]


@pytest.mark.parametrize(
    "u, v, s, message",
    [
        ([0, 1], [1, 3], [0.0, 0.0], r"edge \(1, 3\) out of range for n=3"),
        ([-1, 0], [0, 1], [0.0, 0.0], r"edge \(-1, 0\) out of range for n=3"),
        ([0, 1], [1, 2], [math.inf, 0.0], r"edge \(0, 1\) has non-finite grade \(inf, 0.0\)"),
    ],
)
def test_sorted_pairs_are_checked_as_unsorted_ones_are(u, v, s, message):
    # Pairs that already increase take the path without a sort, and report
    # the first bad edge as the sorting path does, in either input order.
    for order in ([0, 1], [1, 0]):
        with pytest.raises(ValueError, match=message):
            graph_from_arrays(3, np.array(u)[order], np.array(v)[order], np.array(s)[order],
                              np.zeros(2))


def test_write_edge_list_formats_the_stored_arrays(monkeypatch):
    # Ids in decimal, grades by repr: both zeros, the smallest subnormal,
    # the largest finite floats and a long fraction, with no Edge built.
    grades = [(-0.0, 0.0), (5e-324, -5e-324), (1.7976931348623157e308, -1.7976931348623157e308),
              (0.1 + 0.2, 1e-7), (1e16, 2.0)]
    edges = [(u, u + 1 + (u % 2), g) for u, g in enumerate(grades)]
    g = graph_from_edges(8, edges)
    monkeypatch.setattr(BifilteredGraph, "edges", None)
    out = io.StringIO()
    write_edge_list(g, out)
    expected = "8 5\n" + "".join(f"{u} {v} {s!r} {t!r}\n" for u, v, (s, t) in edges)
    assert out.getvalue() == expected
    assert "-0.0 0.0\n" in expected and "1e+16 2.0" in expected


def test_edge_list_roundtrip():
    rng = np.random.default_rng(11)
    g = random_grid_graph(9, 0.4, rng)
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    g2 = read_edge_list(buf)
    assert g2 == g


def test_read_edge_list_rejects_bad_header():
    # A float, a word, a sign or an exponent is refused before any count is read.
    for header in ["3", "3.0 2", "3 x", "-3 2", "3 -2", "+3 2", "3 2 1", "3 1e0", "3 2_0"]:
        with pytest.raises(ValueError) as raised:
            read_edge_list(io.StringIO(f"{header}\n0 1 0 0\n1 2 0 0\n"))
        assert str(raised.value) == f"malformed header {header!r}, expected 'n m'", header


def test_read_edge_list_rejects_count_mismatch():
    with pytest.raises(ValueError, match="promises"):
        read_edge_list(io.StringIO("3 2\n0 1 0 0\n"))


@pytest.mark.parametrize(
    "text", ["", "\n  \n", "# only a comment\n\n"], ids=["empty", "blank", "comment"]
)
def test_read_edge_list_rejects_empty_input(text):
    with pytest.raises(ValueError, match="^empty edge-list input$"):
        read_edge_list(io.StringIO(text))


def test_read_edge_list_checks_the_header_before_the_body():
    def lines():
        yield "3.0 2\n"
        pytest.fail("the body was read before the header was checked")

    with pytest.raises(ValueError, match=r"^malformed header '3.0 2', expected 'n m'$"):
        read_edge_list(lines())


# Each format's text, with a # line and a blank line that every reader skips.
_TEXT_INPUTS = [
    (read_edge_list, "# path\n3 2\n\n0 1 0 0\n  1 2 1.5 1  \n"),
    (load_points, "# cloud\n0,0\n\n1.5, 2\n3 4\n"),
    (load_lower_distance_matrix, "# three points\n1.0\n\n2.0, 3.0\n"),
    (parse_scc2020, "# gap\nscc2020\n2\n\n0 1 2\n1 1 ; 0 1\n0 0 ;\n0 0 ;\n"),
]


@pytest.mark.parametrize("read, text", _TEXT_INPUTS, ids=[r.__name__ for r, _ in _TEXT_INPUTS])
def test_text_readers_take_a_str_a_path_or_a_stream(tmp_path, read, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    results = [read(str(path)), read(path), read(io.StringIO(text))]
    if isinstance(results[0], np.ndarray):
        results = [r.tolist() for r in results]
    assert results[0] == results[1] == results[2]


# A non-ASCII digit, which int, float and str.isdecimal read as a number, a
# vulgar fraction or an ideographic space, which str.strip() and str.split()
# take for a space, in a data line of each format; a # line holding one is
# still skipped.  Each text reads once those characters are ASCII.
_NON_ASCII_INPUTS = [
    (read_edge_list, "# \u0663\n\u0663 2\n0 1 0 0\n1 2 1 1\n", "\u0663 2"),
    (read_edge_list, "3 2\n0 1 0 0\n1 \u0662 1 1\n", "1 \u0662 1 1"),
    (read_edge_list, "3 2\u3000\n0 1 0 0\n1 2 1 1\n", "3 2\u3000"),
    (load_points, "# \u0661\n0 0\n\u0661 2\n", "\u0661 2"),
    (load_points, "0,0\n1,\u00bd\n", "1,\u00bd"),
    (load_lower_distance_matrix, "# \u0661\n\u0661\n2 3\n", "\u0661"),
    (parse_scc2020, "scc2020\n2\n0 1 2\n1 1 ; \u0660 1\n0 0 ;\n0 0 ;\n", "1 1 ; \u0660 1"),
]


@pytest.mark.parametrize(
    "read, text, line",
    _NON_ASCII_INPUTS,
    ids=["edge-header", "edge-body", "edge-space", "points", "fraction", "distances", "scc2020"],
)
def test_text_readers_refuse_a_non_ascii_data_line(read, text, line):
    with pytest.raises(ValueError, match=f"^{re.escape(f'non-ASCII character in line {line!r}')}$"):
        read(io.StringIO(text))
    to_ascii = {0x0660: "0", 0x0661: "1", 0x0662: "2", 0x0663: "3", 0x00BD: "5", 0x3000: " "}
    read(io.StringIO(text.translate(to_ascii)))


# The number grammar, restated for the tests: a count or an id is ASCII
# digits; a number is ASCII float text with no '_' and a '+' only right
# after e or E.  inf and nan are numbers, refused later as non-finite.
_GRAMMAR = {
    "i": re.compile(r"[0-9]+"),
    "f": re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[-+]?[0-9]+)?|inf(?:inity)?|nan)", re.I),
}

# What goes into a valid file at each digit, inserted before it or put in
# its place: only the '+' of 3e+2 and a lone inf or nan can stay in the grammar.
_INSERTS = ["_", "+", "\u0663", "\u00a0", "x", "nan", "inf"]

# Number texts for the valid files: the writers' repr forms, 1e+16 among
# them, and forms such as 3e2 and .5 that the grammar also reads.
_NUMBER_TEXTS = st.sampled_from(["0", "7", "1.5", "0.125", "1e+16", "3e2", "2.5e-3", ".5", "4."])


def _kinds(read, index: int, tokens: list[str]) -> str | None:
    """The kind of each token of a format's data line, or None for a line
    that holds no numbers (the scc2020 tag and parameter count)."""
    if read is read_edge_list:
        return "ii" if index == 0 else "iiff"
    if read is parse_scc2020:
        if index < 2:
            return None
        if index == 2:
            return "iii"
        cut = tokens.index(";")
        return "f" * cut + ";" + "i" * (len(tokens) - cut - 1)
    return "f" * len(tokens)


def _canonical(text: str, read) -> str | None:
    """text with each number written as the writers write it, or None if a
    token is outside the grammar; a reader must read both texts alike."""
    out = []
    for index, line in enumerate(ln for ln in text.splitlines() if ln):
        tokens = re.split("[ ,]+", line)
        kinds = _kinds(read, index, tokens)
        if kinds is None:
            out.append(line)
            continue
        if not line.isascii():
            return None
        for i, (token, kind) in enumerate(zip(tokens, kinds)):
            if kind in _GRAMMAR:
                if not _GRAMMAR[kind].fullmatch(token):
                    return None
                tokens[i] = str(int(token)) if kind == "i" else repr(float(token))
        out.append(" ".join(tokens))
    return "\n".join(out) + "\n"


def _outcome(read, text: str):
    try:
        value = read(io.StringIO(text))
    except ValueError as exc:
        return "refused", str(exc)
    return "read", value.tolist() if isinstance(value, np.ndarray) else value


@st.composite
def _valid_texts(draw, read):
    number = lambda: draw(_NUMBER_TEXTS)  # noqa: E731
    if read is read_edge_list:
        return f"4 3\n0 1 {number()} {number()}\n2 1 {number()} {number()}\n1 3 {number()} {number()}\n"
    if read is load_points:
        return "".join(f"{number()},{number()}\n{number()} {number()}\n" for _ in range(2))
    if read is load_lower_distance_matrix:
        return f"{number()}\n{number()}, {number()}\n{number()} {number()} {number()}\n"
    grades = [f"{number()} {number()}" for _ in range(4)]
    return (f"scc2020\n2\n1 3 3\n{grades[0]} ; 0 1 2\n{grades[1]} ; 0 1\n"
            f"{grades[2]} ; 1 2\n{grades[3]} ; 0 2\n0 0 ;\n0 0 ;\n0 0 ;\n")


_READERS = [read_edge_list, load_points, load_lower_distance_matrix, parse_scc2020]


@pytest.mark.parametrize("read", _READERS, ids=[r.__name__ for r in _READERS])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_every_reader_follows_the_number_grammar(read, data):
    text = data.draw(_valid_texts(read))
    assert _canonical(text, read) is not None and _outcome(read, text)[0] == "read", text
    start = text.index("\n2\n") + 3 if read is parse_scc2020 else 0  # skip the tag and count
    digits = [i for i in range(start, len(text)) if text[i].isdigit()]
    for i in digits:
        for token in _INSERTS:
            for mutant in (text[:i] + token + text[i:], text[:i] + token + text[i + 1 :]):
                line = mutant[mutant.rfind("\n", 0, i) + 1 : mutant.find("\n", i)]
                canonical = _canonical(mutant, read)
                outcome = _outcome(read, mutant)
                if canonical is None:  # refused, quoting the line that holds the token
                    assert outcome[0] == "refused" and repr(line) in outcome[1], (mutant, outcome)
                else:  # read, or refused, as the writers' text of the same numbers
                    expected = _outcome(read, canonical)
                    if outcome != expected:  # a refusal may quote the line as written
                        assert expected[0] == outcome[0] == "refused", (mutant, outcome)
                        assert repr(line) in outcome[1], (mutant, outcome)


# Few distinct values, so grades tie often; both signs of zero, subnormals,
# values near the float range ends, and integral floats.
_EXTREME_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.0, -2.0, 3.0, 5e-324, -5e-324, 2.2250738585072014e-308,
     1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16]
)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(2, 9))
    pairs = draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] < p[1]), max_size=20)
    )
    grade = st.tuples(_EXTREME_FLOATS, _EXTREME_FLOATS)
    return n, [(u, v, draw(grade)) for u, v in sorted(pairs)]


@settings(max_examples=80, deadline=None)
@given(drawn=_edge_lists(), data=st.data())
def test_edge_list_round_trip_shuffled(drawn, data):
    n, edges = drawn
    # The text write_edge_list must give, from the drawn floats themselves.
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v} {s!r} {t!r}\n" for u, v, (s, t) in edges)
    lines = [
        f"{v} {u} {s!r} {t!r}" if data.draw(st.booleans()) else f"{u} {v} {s!r} {t!r}"
        for u, v, (s, t) in edges
    ]
    lines = data.draw(st.permutations(lines))
    rebuilt = read_edge_list(io.StringIO("\n".join([f"{n} {len(edges)}", *lines]) + "\n"))
    assert rebuilt == graph_from_edges(n, edges)
    _assert_sorted_symmetric(rebuilt)
    out = io.StringIO()
    write_edge_list(rebuilt, out)
    assert out.getvalue() == text  # same order, and every float bit for bit


@pytest.mark.parametrize(
    "body, edges, message",
    [
        ("0 1 0\n", None, r"malformed edge line '0 1 0', expected 'u v s t'"),
        ("0 1 0 0 0\n", None, "malformed edge line '0 1 0 0 0'"),
        ("0 1 x 0\n", None, "malformed edge line '0 1 x 0'"),
        ("0.5 1 0 0\n", None, "malformed edge line '0.5 1 0 0'"),
        ("0 1 0 0\n0 1 0\n0.5 1 0 0\n", None, "malformed edge line '0 1 0'"),
        # int() and float() read 1_0 as 10, np.loadtxt refuses it.
        ("0 1_0 0 0\n", None, "malformed edge line '0 1_0 0 0'"),
        ("0 1 0 1_0\n", None, "malformed edge line '0 1 0 1_0'"),
        # np.loadtxt reads a leading +, the grammar allows one only after e or E.
        ("0 +1 0.5 +0.5\n", None, r"malformed edge line '0 \+1 0.5 \+0.5'"),
        ("0 1 x 0\n+0 1 0 0\n", None, "malformed edge line '0 1 x 0'"),
        ("0 1 nan 0\n2 2 0 0\n", [(0, 1, (math.nan, 0.0)), (2, 2, (0.0, 0.0))],
         r"edge \(0, 1\) has non-finite grade \(nan, 0.0\)"),
        ("2 2 0 0\n0 1 nan 0\n", [(2, 2, (0.0, 0.0)), (0, 1, (math.nan, 0.0))],
         "self-loop at vertex 2"),
        ("0 1 0 0\n1 0 1 1\n0 7 0 0\n",
         [(0, 1, (0.0, 0.0)), (1, 0, (1.0, 1.0)), (0, 7, (0.0, 0.0))],
         r"duplicate edge pair \(0, 1\)"),
        ("0 7 0 0\n0 1 0 0\n1 0 1 1\n",
         [(0, 7, (0.0, 0.0)), (0, 1, (0.0, 0.0)), (1, 0, (1.0, 1.0))],
         r"edge \(0, 7\) out of range for n=3"),
        # np.loadtxt reads -0 as 0 and takes a sign on an id; the grammar refuses
        # both, first in file order among the lines it reads after np.loadtxt.
        ("-0 1 0 0\n", None, "malformed edge line '-0 1 0 0'"),
        ("0 2 -0.5 -0\n1 -0 0 0\n", None, "malformed edge line '1 -0 0 0'"),
        ("0 2 -1 0\n1 -0 0 0\n0 +1 0 0\n", None, "malformed edge line '1 -0 0 0'"),
        ("0 +1 0 0\n1 -0 0 0\n", None, r"malformed edge line '0 \+1 0 0'"),
        ("0 1 0 0\n-1 2 0 0\n", None, "malformed edge line '-1 2 0 0'"),
        # A well-formed line whose id overflows int64: numpy's own error stands.
        ("0 99999999999999999999 0 0\n", None, "could not convert string '99999999999999999999'"),
    ],
)
def test_first_bad_edge_reported(body, edges, message):
    lines = body.splitlines()
    with pytest.raises(ValueError, match=message):
        read_edge_list(io.StringIO(f"3 {len(lines)}\n{body}"))
    if edges is not None:
        with pytest.raises(ValueError, match=message):
            graph_from_edges(3, edges)


def test_graph_from_edges_rejects_fractional_id():
    # The triple form of the "0.5 1 0 0" line.
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        graph_from_edges(3, [(0, 1, (0.0, 0.0)), (0.5, 1, (0.0, 0.0))])

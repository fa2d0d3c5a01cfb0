from __future__ import annotations

import io
import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicollapse import expand
from bicollapse.collapse import collapse_iterated
from bicollapse.orders import EdgeOrder
from bicollapse.core import _numbers, graph_from_edges
from bicollapse.expand import (
    GradedTriangle,
    SccComplex,
    _fmt,
    count_triangles,
    enumerate_triangles,
    export_scc2020,
    parse_scc2020,
)
from bicollapse.oracle import graded_cliques, leq, random_grid_graph

from conftest import make_gap6, make_k3


def make_k4():
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    return graph_from_edges(4, [(u, v, (0.0, 0.0)) for u, v in pairs])


def as_tuples(triangles) -> list:
    """A GradedTriangle array as (u, v, w, (s, t)) tuples."""
    return [(u, v, w, (s, t)) for u, v, w, s, t in triangles.tolist()]


def clique_triangles(graph) -> list:
    """The oracle's 3-cliques as (u, v, w, (s, t)) tuples, in its (u, v, w) order."""
    return [(*clique, grade) for grade, clique in graded_cliques(graph) if len(clique) == 3]


def as_array(tuples) -> np.ndarray:
    """(u, v, w, (s, t)) tuples as a GradedTriangle array, in their order."""
    return np.array([(u, v, w, s, t) for u, v, w, (s, t) in tuples], dtype=GradedTriangle)


# -- enumeration -----------------------------------------------------------------


def test_k3_join_grade():
    g = graph_from_edges(3, [(0, 1, (0.0, 0.0)), (0, 2, (1.0, 0.0)), (1, 2, (0.0, 1.0))])
    tris = enumerate_triangles(g)
    assert tris.dtype == GradedTriangle
    assert as_tuples(tris) == [(0, 1, 2, (1.0, 1.0))]


def test_k4_count():
    tris = enumerate_triangles(make_k4())
    assert len(tris) == 4
    assert all(grade == (0.0, 0.0) for _, _, _, grade in as_tuples(tris))


def test_gap6_matches_brute_force(gap6):
    tris = as_tuples(enumerate_triangles(gap6))
    assert tris == clique_triangles(gap6)
    assert (0, 1, 4, (2.0, 0.0)) in tris  # {a, b, x} enters with its late edges
    assert (0, 1, 2, (0.0, 0.0)) in tris  # {a, b, v} present from the start


def test_random_graphs_match_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(25):
        g = random_grid_graph(4 + int(rng.integers(27)), float(rng.choice([0.3, 0.5, 0.8])), rng)
        tris = as_tuples(enumerate_triangles(g))
        assert tris == clique_triangles(g)
        assert len(tris) == count_triangles(g)
        assert all(
            leq(g.grade_of(a, b), grade)
            for u, v, w, grade in tris
            for a, b in ((u, v), (u, w), (v, w))
        )


def test_enumeration_sorted_and_unique():
    g = random_grid_graph(15, 0.6, np.random.default_rng(4))
    keys = [(u, v, w) for u, v, w, _ in as_tuples(enumerate_triangles(g))]
    assert keys == sorted(set(keys))


def test_count_triangles_triangle_free():
    g = graph_from_edges(4, [(0, 1, (0.0, 0.0)), (1, 2, (0.0, 0.0)), (2, 3, (0.0, 0.0))])
    assert count_triangles(g) == 0


def test_count_triangles_complete():
    pairs = [(u, v) for u in range(9) for v in range(u + 1, 9)]
    g = graph_from_edges(9, [(u, v, (0.0, 0.0)) for u, v in pairs])
    assert count_triangles(g) == 9 * 8 * 7 // 6


def test_count_triangles_across_row_groups():
    # 130 vertices, complete: 357,760 wedges, more than one group holds.
    n = 130
    g = graph_from_edges(n, [(u, v, (0.0, 0.0)) for u in range(n) for v in range(u + 1, n)])
    assert count_triangles(g) == n * (n - 1) * (n - 2) // 6
    tris = enumerate_triangles(g)
    assert len(tris) == n * (n - 1) * (n - 2) // 6
    assert tris[["u", "v", "w"]].tolist() == list(combinations(range(n), 3))
    # 3000 vertices go in groups of 349 rows; the triangles span them.
    rng = np.random.default_rng(8)
    pairs = set()
    for a, b, c in np.sort(rng.integers(0, 3000, (4000, 3)), axis=1).tolist():
        if a < b < c:
            pairs.update({(a, b), (a, c), (b, c)})
    g = graph_from_edges(3000, [(u, v, (0.0, 0.0)) for u, v in sorted(pairs)])
    assert count_triangles(g) == len(enumerate_triangles(g)) >= 3900


def test_each_group_clears_its_marks(monkeypatch):
    # One wedge a group: row 0 closes (0, 2, 3), and the next group, rows 1
    # and 2, reads the wedge (1, 2, 3) in the cell where row 0 marked
    # (0, 3).  A mark left there would close the triple (1, 2, 3), which
    # lacks the edge (1, 3).
    monkeypatch.setattr(expand, "_WEDGES", 1)
    pairs = [(0, 2), (0, 3), (1, 2), (2, 3)]
    g = graph_from_edges(4, [(u, v, (float(u), float(v))) for u, v in pairs])
    assert count_triangles(g) == 1
    assert enumerate_triangles(g)[["u", "v", "w"]].tolist() == [(0, 2, 3)]
    assert export_text(g, enumerate_triangles(g)) == _tuple_export(g, clique_triangles(g))


def test_count_triangles_memory_linear_in_edges():
    # A dense n x n matrix of 3000 vertices alone would take 72 MB.  The
    # walk's mark table holds at most 2**18 one-byte cells here (4 edges),
    # and the run peaks near 0.6 MB; a 2**20-cell table peaks near 2.1 MB.
    g = graph_from_edges(
        3000, [(0, 1, (0.0, 0.0)), (0, 2, (0.0, 0.0)), (1, 2, (0.0, 0.0)), (5, 2999, (0.0, 0.0))]
    )
    tracemalloc.start()
    try:
        assert count_triangles(g) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.fixture(scope="module")
def k130():
    # Complete on 130 vertices, 8,385 edges at distinct grades (u, v): 357,760
    # triangles, a 13.6 MB array and an 8 MB file.
    n = 130
    g = graph_from_edges(n, [(u, v, (u, v)) for u in range(n) for v in range(u + 1, n)])
    return g, enumerate_triangles(g)


def traced_peak(call) -> tuple[object, int]:
    """call()'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_triangles_memory_bounded_on_k130(k130):
    # The wedge walk gathers at most _WEDGES wedges a group; a group of
    # 2**18 wedges peaks near 12.6 MB here.
    g, triangles = k130
    count, peak = traced_peak(lambda: count_triangles(g))
    assert count == len(triangles) and peak < 6 * 2**20


def test_enumerate_memory_bounded_by_its_array(k130):
    # The groups keep their edge indices in 2 bytes each, and the array is
    # filled group by group: int64 indices concatenated and gathered whole
    # peak near 2.8 times the array.
    g, triangles = k130
    out, peak = traced_peak(lambda: enumerate_triangles(g))
    assert np.array_equal(out, triangles) and peak < 1.5 * out.nbytes


def test_export_memory_bounded_by_the_triangles(k130, tmp_path):
    # The export holds the triangle array, the facets in 2 bytes an index
    # and one slice of _CHUNK_LINES triangles or lines, never the text.
    g, triangles = k130
    _, peak = traced_peak(lambda: export_scc2020(g, triangles, tmp_path / "k130.scc"))
    assert peak < triangles.nbytes // 2


def test_collapse_never_adds_triangles():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_grid_graph(10, 0.6, rng)
        before = count_triangles(g)
        for mode in ("strong", "full"):
            collapsed, _ = collapse_iterated(g, EdgeOrder("revlex"), mode=mode, iterations=3)
            assert count_triangles(collapsed) <= before


# -- export ----------------------------------------------------------------------


def export_text(graph, triangles):
    buf = io.StringIO()
    export_scc2020(graph, triangles, buf)
    return buf.getvalue()


def test_export_k3_structure(k3):
    text = export_text(k3, enumerate_triangles(k3))
    lines = text.splitlines()
    assert lines[0] == "scc2020"
    assert lines[1] == "2"
    assert lines[2] == "1 3 3"
    grades, _, faces = lines[3].partition(";")
    assert sorted(int(tok) for tok in faces.split()) == [0, 1, 2]
    assert lines[4:7] == ["0 0 ; 0 1", "0 0 ; 0 2", "0 0 ; 1 2"]
    assert lines[7:] == ["0 0 ;"] * 3


def test_export_edge_only_graph():
    g = graph_from_edges(3, [(0, 1, (1.0, 2.0)), (1, 2, (3.0, 2.5))])
    text = export_text(g, enumerate_triangles(g))
    lines = text.splitlines()
    assert lines[2] == "0 2 3"
    # grades shifted so the coordinate-wise minimum over edges is (0, 0)
    assert lines[3] == "0 0 ; 0 1"
    assert lines[4] == "2 0.5 ; 1 2"


def test_export_shifts_negative_grades():
    g = graph_from_edges(2, [(0, 1, (-3.0, 1.0))])
    assert "0 0 ; 0 1" in export_text(g, enumerate_triangles(g))


def test_export_rejects_a_shift_that_overflows(k3):
    # Both grades are finite, but 1e308 - (-1e308) overflows to inf.
    g = graph_from_edges(3, [(0, 1, (1e308, 0.0)), (1, 2, (-1e308, 0.0))])
    sink = io.StringIO()
    with pytest.raises(ValueError, match=r"coordinate s = 1e\+308 .* not finite"):
        export_scc2020(g, enumerate_triangles(g), sink)
    assert sink.getvalue() == ""
    # A triangle array whose grade was edited, to a value that is not
    # finite or to one that is, is not the enumeration.
    for name, value in (("s", math.inf), ("t", math.nan), ("s", 0.375)):
        tris = enumerate_triangles(k3)
        tris[name] = value
        with pytest.raises(ValueError, match=_NOT_ENUMERATED):
            export_text(k3, tris)


def test_export_rejects_missing_facet(k3):
    # The triangle of k3 against the graph without its edge (1, 2).
    g = graph_from_edges(3, [(0, 1, (0.0, 0.0)), (0, 2, (0.0, 0.0))])
    with pytest.raises(ValueError, match=_NOT_ENUMERATED):
        export_text(g, enumerate_triangles(k3))


_NOT_ENUMERATED = re.escape("triangles must be enumerate_triangles(graph), a GradedTriangle array")


def test_triangle_vertex_order_enforced():
    # Every triangle must list its vertices in increasing order.
    g = make_k4()
    for u, v, w in ((2, 1, 3), (0, 0, 1), (0, 2, 1)):
        with pytest.raises(ValueError, match=_NOT_ENUMERATED):
            export_text(g, as_array([(u, v, w, (0.0, 0.0))]))


def test_export_byte_stable(gap6):
    # The same graph, built with its edges in another order, gives the same
    # bytes; the triangles in any order but enumerate_triangles' are
    # rejected, and so is anything that is not a GradedTriangle array.
    tris = enumerate_triangles(gap6)
    first = export_text(gap6, tris)
    assert export_text(gap6.copy(), tris) == first
    shuffled = graph_from_edges(gap6.n, list(reversed(gap6.edge_list())))
    assert export_text(shuffled, enumerate_triangles(shuffled)) == first
    with pytest.raises(ValueError, match=_NOT_ENUMERATED):
        export_text(gap6, tris[::-1])
    for other in (as_tuples(tris), [], tris[["u", "v", "w"]], tris.reshape(1, -1)):
        with pytest.raises(ValueError, match=_NOT_ENUMERATED):
            export_text(gap6, other)


def test_export_rejects_repeated_triangles(k3):
    # A vertex triple given twice, at equal or at different grades.
    hi, lo = (0, 1, 2, (1.0, 1.0)), (0, 1, 2, (0.0, 0.0))
    for written in ([hi, lo], [lo, hi], [lo, lo]):
        with pytest.raises(ValueError, match=_NOT_ENUMERATED):
            export_text(k3, as_array(written))


def test_export_to_path(tmp_path, k3):
    out = tmp_path / "k3.scc"
    export_scc2020(k3, enumerate_triangles(k3), out)
    assert out.read_text() == export_text(k3, enumerate_triangles(k3))


def test_refused_export_leaves_the_path_untouched(tmp_path, k3):
    # Every check runs before the path is opened, so a file already there
    # keeps its bytes.
    out = tmp_path / "kept.scc"
    out.write_bytes(b"kept\n")
    overflow = graph_from_edges(3, [(0, 1, (1e308, 0.0)), (1, 2, (-1e308, 0.0))])
    no_12 = graph_from_edges(3, [(0, 1, (0.0, 0.0)), (0, 2, (0.0, 0.0))])
    # K4 and the isolated vertex 4: (1, 2, 4) is a triple, not a triangle.
    k4 = graph_from_edges(5, [(u, v, (u, v)) for u in range(4) for v in range(u + 1, 4)])
    tris = enumerate_triangles(k4)
    regraded = tris.copy()
    regraded["s"][1] += 1.0
    stray = as_array([(1, 2, 4, (3.0, 4.0))])
    refused = [(overflow, enumerate_triangles(overflow), "not finite")] + [
        (graph, triangles, _NOT_ENUMERATED)
        for graph, triangles in [
            (no_12, enumerate_triangles(k3)),  # a missing facet
            (k3, enumerate_triangles(k3)[["u", "v", "w"]]),  # not a GradedTriangle array
            (k4, tris[::-1]),  # reordered
            (k4, np.insert(tris, 1, tris[1])),  # repeated
            (k4, np.concatenate((tris[:3], stray))),  # a stray triple
            (k4, regraded),
            (k4, tris[:-1]),  # a subset
            (k4, np.concatenate((tris, stray))),  # a superset
        ]
    ]
    for graph, triangles, message in refused:
        for sink in (out, str(out)):
            with pytest.raises(ValueError, match=message):
                export_scc2020(graph, triangles, sink)
            assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("lines", [1, 2, 5])
def test_export_bytes_do_not_depend_on_the_slice_size(monkeypatch, gap6, lines):
    # gap6 (16 triangles, 14 edges, 6 vertices) and a random graph whose
    # triangles, edges and vertices each span several slices of 5 lines.
    random = random_grid_graph(12, 0.6, np.random.default_rng(3))
    graphs = [(g, enumerate_triangles(g)) for g in (gap6, random)]
    assert all(len(tris) > 10 and g.edge_count() > 10 for g, tris in graphs)
    expected = [export_text(g, tris) for g, tris in graphs]
    monkeypatch.setattr(expand, "_CHUNK_LINES", lines)
    for (g, tris), text in zip(graphs, expected):
        assert export_text(g, tris) == text == _tuple_export(g, as_tuples(tris))
    # A repeat or a step back between the last row of one slice and the
    # first of the next is refused.
    tris = graphs[0][1]
    swapped = tris.copy()
    swapped[[lines - 1, lines]] = tris[[lines, lines - 1]]
    for other in (np.insert(tris, lines, tris[lines - 1]), swapped):
        with pytest.raises(ValueError, match=_NOT_ENUMERATED):
            export_text(gap6, other)
    # A triple that is not a triangle, in a later slice, is refused too.
    pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)]
    g = graph_from_edges(5, [(u, v, (0.0, 0.0)) for u, v in pairs])
    written = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4)]
    with pytest.raises(ValueError, match=_NOT_ENUMERATED):
        export_text(g, as_array([(*uvw, (0.0, 0.0)) for uvw in written]))


# -- the array stage against the clique oracle and the tuple exporter ------------


def _tuple_export(graph, triangles) -> str:
    """Reference for the graph's own triangles: sorted() tuples, facets by
    dict lookup, one line each.  It refuses, s before t, the least
    coordinate of any triangle or edge that is not finite after the shift."""
    edges = graph.edge_list()
    shift_s = min((e.grade[0] for e in edges), default=0.0)
    shift_t = min((e.grade[1] for e in edges), default=0.0)
    edge_index = {(e.u, e.v): i for i, e in enumerate(edges)}
    triangles = sorted(triangles)
    facets = [f"{edge_index[u, v]} {edge_index[u, w]} {edge_index[v, w]}" for u, v, w, _ in triangles]
    grades = [grade for *_, grade in triangles] + [e.grade for e in edges]
    for axis, name, shift in ((0, "s", shift_s), (1, "t", shift_t)):
        bad = [g[axis] for g in grades if not math.isfinite(g[axis] - shift)]
        if bad:
            raise ValueError(f"grade coordinate {name} = {min(bad)!r} minus the shift {shift!r} is not finite")
    lines = ["scc2020", "2", f"{len(triangles)} {len(edges)} {graph.n}"]
    for (_, _, _, (s, t)), faces in zip(triangles, facets):
        lines.append(f"{_fmt(s - shift_s)} {_fmt(t - shift_t)} ; {faces}")
    for u, v, (s, t) in edges:
        lines.append(f"{_fmt(s - shift_s)} {_fmt(t - shift_t)} ; {u} {v}")
    lines.extend("0 0 ;" for _ in range(graph.n))
    return "\n".join(lines) + "\n"


# Few values, so grades tie often and -0.0 sits next to 0.0.
_TIE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
_TIE_GRADES = st.tuples(_TIE_FLOATS, _TIE_FLOATS)


@st.composite
def _tied_graphs(draw):
    # Empty and triangle-free graphs come up often, and n = 0 too.
    n = draw(st.integers(0, 9))
    pairs = draw(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=36))
    edges = [(u, v, draw(_TIE_GRADES)) for u, v in sorted(pairs) if u < v < n]
    return graph_from_edges(n, draw(st.permutations(edges)))


@settings(max_examples=150, deadline=None)
@given(g=_tied_graphs(), data=st.data())
def test_triangle_stage_matches_tuple_reference(g, data):
    reference = clique_triangles(g)
    tris = enumerate_triangles(g)
    assert tris.dtype == GradedTriangle
    assert as_tuples(tris) == reference
    assert count_triangles(g) == len(tris)
    assert export_text(g, tris) == _tuple_export(g, reference)
    # Hand-written arrays: the triangles, some at other grades, and a few
    # arbitrary triples u < v < w (mostly with a missing facet), one grade
    # per triple, in (u, v, w) order.  Only the enumeration itself is
    # written; any other array is refused.
    regraded = data.draw(st.sets(st.sampled_from(reference), max_size=6)) if reference else set()
    ids = st.integers(-1, g.n)
    strays = data.draw(st.lists(st.tuples(ids, ids, ids), max_size=2))
    written = {(u, v, w): grade for u, v, w, grade in reference}
    for key in [t[:3] for t in regraded] + [tuple(sorted(set(t))) for t in strays]:
        if len(key) == 3:
            written[key] = data.draw(_TIE_GRADES)
    written = [(*key, grade) for key, grade in sorted(written.items())]
    if written == reference:
        assert export_text(g, as_array(written)) == _tuple_export(g, reference)
    else:
        with pytest.raises(ValueError, match=_NOT_ENUMERATED):
            export_text(g, as_array(written))
    # In any other order, or with a triangle repeated, they are rejected.
    shuffled = data.draw(st.permutations(written))
    rejected = [written + written[:1]] if written else []
    if shuffled != written:
        rejected.append(shuffled)
    for other in rejected:
        with pytest.raises(ValueError, match=_NOT_ENUMERATED):
            export_text(g, as_array(other))


# Extreme magnitudes and subnormals next to 0.0 and -0.0: a graph holding
# 1e308 and -1e308 on one axis overflows the shift.
_EXTREME_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -2.0, 1e308, -1e308]
    + [1.7976931348623157e308, -1.7976931348623157e308]
)
# A hand-edited triangle coordinate off the edge table: not finite, or on no
# edge.  Such an array is not the enumeration, and is refused.
_OFF_TABLE = st.sampled_from([math.inf, -math.inf, math.nan, 0.375, -7.25])


@st.composite
def _extreme_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = draw(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=36))
    grade = st.tuples(_EXTREME_FLOATS, _EXTREME_FLOATS)
    return graph_from_edges(n, [(u, v, draw(grade)) for u, v in sorted(pairs) if u < v < n])


@settings(max_examples=200, deadline=None)
@given(g=_extreme_graphs(), data=st.data())
def test_export_matches_the_tuple_reference_in_small_groups(g, data):
    # The wedge walk in groups of at most 3 wedges and the export in slices
    # of 2 lines write what the reference writes, or refuse with its message;
    # hand-edited arrays whose grades are off the edge table are refused.
    reference = clique_triangles(g)
    written = {(u, v, w): grade for u, v, w, grade in reference}
    for key in data.draw(st.sets(st.sampled_from(sorted(written)), max_size=3)) if written else ():
        grade = list(written[key])
        grade[data.draw(st.integers(0, 1))] = data.draw(_OFF_TABLE)
        written[key] = tuple(grade)
    written = [(*key, grade) for key, grade in sorted(written.items())]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expand, "_WEDGES", 3)
        patch.setattr(expand, "_CHUNK_LINES", 2)
        tris = enumerate_triangles(g)
        assert as_tuples(tris) == reference and count_triangles(g) == len(tris)
        try:
            expected = _tuple_export(g, reference)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                export_text(g, tris)
            assert str(raised.value) == str(exc)
        else:
            assert export_text(g, tris) == expected
        if written != reference:
            with pytest.raises(ValueError, match=_NOT_ENUMERATED):
                export_text(g, as_array(written))


def test_export_refuses_triples_on_a_triangle_free_graph():
    # The graph has no triangle, so its one array is the empty one.
    g = graph_from_edges(4, [(0, 1, (0.0, 0.0)), (0, 2, (0.0, 0.0)), (1, 3, (0.0, 0.0))])
    written = [(0, 1, 2, (0.0, 0.0)), (0, 1, 3, (1.0, 0.0)), (1, 2, 3, (0.0, 0.0))]
    for triples in (written, written[::-1], written[:1]):
        with pytest.raises(ValueError, match=_NOT_ENUMERATED):
            export_text(g, as_array(triples))
    assert export_text(g, as_array([])) == _tuple_export(g, [])


# -- round-trip ------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(g=_tied_graphs())
def test_round_trip_property(g):
    # Block sizes, facets pointing at the right edges, and grades equal to
    # the shifted edge grades exactly.
    edges = g.edge_list()
    tris = as_tuples(enumerate_triangles(g))
    parsed = parse_scc2020(io.StringIO(export_text(g, enumerate_triangles(g))))
    assert parsed.sizes() == (len(tris), len(edges), g.n)
    shift_s = min((s for _, _, (s, _) in edges), default=0.0)
    shift_t = min((t for _, _, (_, t) in edges), default=0.0)
    for ((s, t), faces), (u, v, (es, et)) in zip(parsed.blocks[1], edges):
        assert faces == (u, v)
        assert (s, t) == (es - shift_s, et - shift_t)
    for ((s, t), faces), (u, v, w, (ts, tt)) in zip(parsed.blocks[0], tris):
        assert [edges[f][:2] for f in faces] == [(u, v), (u, w), (v, w)]
        assert (s, t) == (ts - shift_s, tt - shift_t)
        assert (ts, tt) == (max(edges[f].grade[0] for f in faces), max(edges[f].grade[1] for f in faces))
    assert all(gen == ((0.0, 0.0), ()) for gen in parsed.blocks[2])




def test_round_trip_gap6(gap6):
    tris = enumerate_triangles(gap6)
    parsed = parse_scc2020(io.StringIO(export_text(gap6, tris)))
    assert isinstance(parsed, SccComplex)
    assert parsed.sizes() == (len(tris), gap6.edge_count(), gap6.n)
    exported_tri_grades = sorted(g for g, _ in parsed.blocks[0])
    # the minimum edge grade is (0, 0), so nothing is shifted
    assert exported_tri_grades == sorted(grade for _, _, _, grade in as_tuples(tris))
    edge_grades = sorted(g for g, _ in parsed.blocks[1])
    assert edge_grades == sorted(e.grade for e in gap6.edges())
    assert all(g == (0.0, 0.0) and f == () for g, f in parsed.blocks[2])


def test_round_trip_random():
    g = random_grid_graph(12, 0.5, np.random.default_rng(9))
    tris = enumerate_triangles(g)
    parsed = parse_scc2020(io.StringIO(export_text(g, tris)))
    assert parsed.sizes() == (len(tris), g.edge_count(), g.n)
    for _, faces in parsed.blocks[0]:
        assert len(faces) == 3 and len(set(faces)) == 3
    for _, faces in parsed.blocks[1]:
        assert len(faces) == 2


def test_parse_reads_lines_the_export_never_writes_alike():
    # Blocks that are not read at once (no spaces around ';', tabs, mixed
    # facet counts, a grade as an exponent) read as they read line by line.
    text = "scc2020\n2\n1 2 3\n1e0 0;0\t1\n0 0 ; 0\n2.5  0 ;0 2\n0 0 ;\n0 0;\n0 0 ;\n"
    parsed = parse_scc2020(io.StringIO(text))
    assert parsed.blocks == (
        (((1.0, 0.0), (0, 1)),),
        (((0.0, 0.0), (0,)), ((2.5, 0.0), (0, 2))),
        (((0.0, 0.0), ()),) * 3,
    )
    assert all(type(x) is float for block in parsed.blocks for (grade, _) in block for x in grade)


def _line_reader(lines, next_size) -> tuple:
    """Reference: each generator line read on its own, as parse_scc2020 did
    before it read whole blocks."""
    gens = []
    for ln in lines:
        head, sep, tail = ln.partition(";")
        if not sep:
            raise ValueError(f"generator line lacks ';': {ln!r}")
        coords = _numbers(ln, "f", "grade holds {}: {!r}", head).tolist()
        if len(coords) != 2:
            raise ValueError(f"expected two grade coordinates: {ln!r}")
        if not all(map(math.isfinite, coords)):
            raise ValueError(f"grade is not finite: {ln!r}")
        faces = tuple(_numbers(ln, "i", "facet index is not a plain decimal: {1!r}", tail))
        if any(f >= next_size for f in faces):
            raise ValueError(f"facet index out of range: {ln!r}")
        gens.append(((coords[0], coords[1]), faces))
    return tuple(gens)


# Mostly well-formed generator lines, and now and then a token or a
# separator that one reader or the other must refuse.
_GRADE_TOKENS = st.sampled_from(["0", "1", "2.5", "-0", "1e-5", "1e+5", "inf", "nan", "1_0", "+1", "x"])
_FACET_TOKENS = st.sampled_from(["0", "1", "2", "7", "01", "-1", "+1", "1_0", ";", "9" * 30])


@st.composite
def _generator_lines(draw):
    well_formed = draw(st.booleans())
    width = draw(st.integers(0, 3))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        grade = [draw(st.sampled_from(["0", "1", "2.5", "1e-5"])) for _ in range(2)]
        facets = [draw(st.sampled_from(["0", "1", "2"])) for _ in range(width)]
        if not well_formed:
            grade = draw(st.lists(_GRADE_TOKENS, min_size=1, max_size=3))
            facets = draw(st.lists(_FACET_TOKENS, max_size=4))
        sep = draw(st.sampled_from([" ; ", ";", " ;\t", " "]) if not well_formed else st.just(" ; "))
        lines.append((" ".join(grade) + sep + " ".join(facets)).strip())
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=_generator_lines(), next_size=st.integers(0, 3))
def test_block_reader_matches_the_line_reader(lines, next_size):
    try:
        expected = _line_reader(lines, next_size)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            expand._block(lines, next_size)
        assert str(raised.value) == str(exc)
    else:
        got = expand._block(lines, next_size)
        assert got == expected
        assert [type(x) for gen in got for x in (*gen[0], *gen[1])] == [
            type(x) for gen in expected for x in (*gen[0], *gen[1])
        ]


def test_parse_rejects_bad_tag():
    with pytest.raises(ValueError, match="format tag"):
        parse_scc2020(io.StringIO("firep\n2\n0 0 0\n"))


def test_parse_rejects_wrong_parameter_count():
    with pytest.raises(ValueError, match="2 filtration parameters"):
        parse_scc2020(io.StringIO("scc2020\n3\n0 0 0\n"))


def test_parse_rejects_a_missing_block_size_line():
    for text in ("scc2020\n2\n", "scc2020\n2\n# no sizes\n\n"):
        with pytest.raises(ValueError, match="^missing the block-size line$"):
            parse_scc2020(io.StringIO(text))


def test_parse_rejects_line_count_mismatch():
    with pytest.raises(ValueError, match="generator lines"):
        parse_scc2020(io.StringIO("scc2020\n2\n0 1 2\n0 0 ; 0 1\n0 0 ;\n"))


def test_parse_rejects_a_vertex_line_without_its_separator():
    # Every other line of the block holds one ';', so only the line count
    # tells the block apart from one read at once.
    text = "scc2020\n2\n0 0 3\n0 0 ;\n0 0\n0 0 ;\n"
    with pytest.raises(ValueError, match=r"^generator line lacks ';': '0 0'$"):
        parse_scc2020(io.StringIO(text))


def test_parse_rejects_out_of_range_facet():
    text = "scc2020\n2\n0 1 2\n0 0 ; 0 5\n0 0 ;\n0 0 ;\n"
    with pytest.raises(ValueError, match="out of range"):
        parse_scc2020(io.StringIO(text))


@pytest.mark.parametrize(
    "sizes",
    ["0 1", "0 1 2 3", "a b c", "0 -1 2", "+0 1 2", "0_0 1 2", "0 1.0 2", "0 1e0 2"],
)
def test_parse_rejects_block_sizes_that_are_not_three_plain_decimals(sizes):
    text = f"scc2020\n2\n{sizes}\n0 0 ; 0 1\n0 0 ;\n0 0 ;\n"
    message = f"expected three block sizes, got {sizes!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_scc2020(io.StringIO(text))


@pytest.mark.parametrize("line", ["0 x ; 0 1", "0x1 0 ; 0 1", "+0 0 ; 0 1"])
def test_parse_quotes_a_grade_with_a_token_that_is_not_a_number(line):
    text = f"scc2020\n2\n0 1 2\n{line}\n0 0 ;\n0 0 ;\n"
    message = f"grade holds a token that is not a number: {line!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_scc2020(io.StringIO(text))


@pytest.mark.parametrize(
    "line, message",
    [
        ("0 0 0 1", "generator line lacks ';'"),
        ("0 ; 0 1", "expected two grade coordinates"),
        ("0 0 0 ; 0 1", "expected two grade coordinates"),
        ("nan 0 ; 0 1", "grade is not finite"),
        ("0 inf ; 0 1", "grade is not finite"),
        ("1_0 0 ; 0 1", "grade holds an underscore"),
        ("0 0_5 ; 0 1", "grade holds an underscore"),
        ("0 0 ; +0 1", "facet index is not a plain decimal"),
        ("0 0 ; 0 -1", "facet index is not a plain decimal"),
        ("0 0 ; 0 1_0", "facet index is not a plain decimal"),
        ("0 0 ; 0 ; 1", "facet index is not a plain decimal"),
    ],
)
def test_parse_rejects_a_generator_line_export_never_writes(line, message):
    text = f"scc2020\n2\n0 1 2\n{line}\n0 0 ;\n0 0 ;\n"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}: {re.escape(repr(line))}$"):
        parse_scc2020(io.StringIO(text))

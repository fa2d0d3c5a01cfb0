from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest

from bicollapse.collapse import collapse_iterated
from bicollapse.orders import EdgeOrder
from bicollapse.core import graph_from_edges, leq
from bicollapse.expand import (
    SccComplex,
    count_triangles,
    enumerate_triangles,
    export_scc2020,
    parse_scc2020,
)
from bicollapse.oracle import brute_force_triangles, random_grid_graph

from conftest import make_gap6, make_k3


def make_k4():
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    return graph_from_edges(4, [(u, v, (0.0, 0.0)) for u, v in pairs])


# -- enumeration -----------------------------------------------------------------


def test_k3_join_grade():
    g = graph_from_edges(3, [(0, 1, (0.0, 0.0)), (0, 2, (1.0, 0.0)), (1, 2, (0.0, 1.0))])
    assert enumerate_triangles(g) == [(0, 1, 2, (1.0, 1.0))]


def test_k4_count():
    tris = enumerate_triangles(make_k4())
    assert len(tris) == 4
    assert all(grade == (0.0, 0.0) for _, _, _, grade in tris)


def test_gap6_matches_brute_force(gap6):
    tris = enumerate_triangles(gap6)
    assert tris == brute_force_triangles(gap6)
    assert (0, 1, 4, (2.0, 0.0)) in tris  # {a, b, x} enters with its late edges
    assert (0, 1, 2, (0.0, 0.0)) in tris  # {a, b, v} present from the start


def test_random_graphs_match_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(25):
        g = random_grid_graph(4 + int(rng.integers(27)), float(rng.choice([0.3, 0.5, 0.8])), rng)
        tris = enumerate_triangles(g)
        assert tris == brute_force_triangles(g)
        assert len(tris) == count_triangles(g)
        assert all(
            leq(g.grade_of(a, b), grade)
            for u, v, w, grade in tris
            for a, b in ((u, v), (u, w), (v, w))
        )


def test_enumeration_sorted_and_unique():
    g = random_grid_graph(15, 0.6, np.random.default_rng(4))
    keys = [(u, v, w) for u, v, w, _ in enumerate_triangles(g)]
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
    # 3000 vertices go in groups of 349 rows; the triangles span them.
    rng = np.random.default_rng(8)
    pairs = set()
    for a, b, c in np.sort(rng.integers(0, 3000, (4000, 3)), axis=1).tolist():
        if a < b < c:
            pairs.update({(a, b), (a, c), (b, c)})
    g = graph_from_edges(3000, [(u, v, (0.0, 0.0)) for u, v in sorted(pairs)])
    assert count_triangles(g) == len(enumerate_triangles(g)) >= 3900


def test_count_triangles_memory_linear_in_edges():
    # A dense n x n matrix of 3000 vertices alone would take 72 MB.
    g = graph_from_edges(
        3000, [(0, 1, (0.0, 0.0)), (0, 2, (0.0, 0.0)), (1, 2, (0.0, 0.0)), (5, 2999, (0.0, 0.0))]
    )
    tracemalloc.start()
    try:
        assert count_triangles(g) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


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
    text = export_text(g, [])
    lines = text.splitlines()
    assert lines[2] == "0 2 3"
    # grades shifted so the coordinate-wise minimum over edges is (0, 0)
    assert lines[3] == "0 0 ; 0 1"
    assert lines[4] == "2 0.5 ; 1 2"


def test_export_shifts_negative_grades():
    g = graph_from_edges(2, [(0, 1, (-3.0, 1.0))])
    assert "0 0 ; 0 1" in export_text(g, [])


def test_export_rejects_missing_facet():
    g = graph_from_edges(3, [(0, 1, (0.0, 0.0)), (0, 2, (0.0, 0.0))])
    with pytest.raises(ValueError, match="missing edge"):
        export_text(g, [(0, 1, 2, (0.0, 0.0))])


def test_triangle_vertex_order_enforced():
    # Facets are looked up as (u, v), (u, w), (v, w) among edges keyed u < v,
    # so the export rejects any triangle whose vertices do not increase.
    g = make_k4()
    for u, v, w in ((2, 1, 3), (0, 0, 1)):
        with pytest.raises(ValueError, match="missing edge"):
            export_text(g, [(u, v, w, (0.0, 0.0))])


def test_export_byte_stable(gap6):
    tris = enumerate_triangles(gap6)
    first = export_text(gap6, tris)
    second = export_text(gap6.copy(), list(reversed(tris)))
    assert first == second


def test_export_orders_repeated_triangles(k3):
    # Equal vertex triples are ordered by grade, whatever order they come in.
    hi, lo = (0, 1, 2, (1.0, 1.0)), (0, 1, 2, (0.0, 0.0))
    assert export_text(k3, [hi, lo]) == export_text(k3, [lo, hi])


def test_export_to_path(tmp_path, k3):
    out = tmp_path / "k3.scc"
    export_scc2020(k3, enumerate_triangles(k3), out)
    assert out.read_text() == export_text(k3, enumerate_triangles(k3))


# -- round-trip ------------------------------------------------------------------


def test_round_trip_gap6(gap6):
    tris = enumerate_triangles(gap6)
    parsed = parse_scc2020(io.StringIO(export_text(gap6, tris)))
    assert isinstance(parsed, SccComplex)
    assert parsed.sizes() == (len(tris), gap6.edge_count(), gap6.n)
    exported_tri_grades = sorted(g for g, _ in parsed.blocks[0])
    assert exported_tri_grades == sorted(grade for _, _, _, grade in tris)  # min edge grade is (0,0)
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


def test_parse_rejects_bad_tag():
    with pytest.raises(ValueError, match="format tag"):
        parse_scc2020(io.StringIO("firep\n2\n0 0 0\n"))


def test_parse_rejects_wrong_parameter_count():
    with pytest.raises(ValueError, match="2 filtration parameters"):
        parse_scc2020(io.StringIO("scc2020\n3\n0 0 0\n"))


def test_parse_rejects_line_count_mismatch():
    with pytest.raises(ValueError, match="generator lines"):
        parse_scc2020(io.StringIO("scc2020\n2\n0 1 2\n0 0 ; 0 1\n0 0 ;\n"))


def test_parse_rejects_out_of_range_facet():
    text = "scc2020\n2\n0 1 2\n0 0 ; 0 5\n0 0 ;\n0 0 ;\n"
    with pytest.raises(ValueError, match="out of range"):
        parse_scc2020(io.StringIO(text))

"""Greedy collapse: removal legality, homology preservation, determinism."""

from __future__ import annotations

import io
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicollapse import collapse
from bicollapse.build import (
    density_rips_graph,
    generate_dataset,
    kde_bandwidth,
    kde_density,
    pairwise_distances,
)
from bicollapse.collapse import MODES, apply_grade_mode, collapse_iterated
from bicollapse.core import BifilteredGraph, Edge, graph_from_arrays, graph_from_edges
from bicollapse.domination import (
    _DenseStrongEngine,
    _RowStore,
    is_filtration_dominated,
    is_strongly_dominated,
)
from bicollapse.expand import count_triangles, enumerate_triangles, export_scc2020
from bicollapse.oracle import (
    brute_force_filtration_dominated,
    brute_force_strong_dominator,
    random_grid_graph,
    verify_collapse,
)
from bicollapse.orders import ORDER_KINDS, EdgeOrder, sort_edges

from conftest import A, B, decoded, edge_of, make_gap6, make_k3, without


def _order(kind: str) -> EdgeOrder:
    return EdgeOrder(kind, seed=11 if kind == "random" else None)


# -- single pass basics --------------------------------------------------------


def test_k3_any_order_removes_one():
    for kind in ORDER_KINDS:
        out, report = collapse_iterated(make_k3(), _order(kind), "strong", 1)
        assert report.removed_per_iteration == [1]
        assert out.edge_count() == 2
        for e in out.edge_list():
            assert not brute_force_filtration_dominated(out, e)


def test_single_edge_untouched():
    g = graph_from_edges(2, [(0, 1, (0.0, 0.0))])
    out, report = collapse_iterated(g, EdgeOrder("revlex"), "full", 1)
    assert report.removed_total == 0
    assert out == g


def test_full_lex_removes_gap6_target_first():
    out, report = collapse_iterated(make_gap6(), EdgeOrder("lex"), "full", 1)
    first = report.removal_log[0][0]
    assert (first.u, first.v) == (A, B)
    assert verify_collapse(make_gap6(), out).ok


def test_pass_visits_each_edge_once():
    # A pass may leave edges that are dominated in the final graph when their
    # turn came before their dominator situation settled; iteration 2 of the
    # same order then removes nothing extra on this instance only if stable.
    g = make_gap6()
    out1, rep1 = collapse_iterated(g, EdgeOrder("revlex"), "strong", 1)
    out2, rep2 = collapse_iterated(g, EdgeOrder("revlex"), "strong", 4)
    assert rep2.removed_per_iteration[0] == rep1.removed_per_iteration[0]
    assert sum(rep2.removed_per_iteration) >= rep1.removed_total


def test_report_accounting():
    g = random_grid_graph(9, 0.6, np.random.default_rng(3))
    out, report = collapse_iterated(g, EdgeOrder("colex"), "full", 3)
    assert report.edges_before == g.edge_count()
    assert report.edges_after == out.edge_count()
    assert report.edges_before - report.edges_after == sum(report.removed_per_iteration)
    assert len(report.wall_time_per_iteration) == len(report.removed_per_iteration)
    assert all(t >= 0 for t in report.wall_time_per_iteration)
    assert [len(it) for it in report.removal_log] == report.removed_per_iteration


def test_early_stop_on_empty_iteration():
    out, report = collapse_iterated(make_k3(), EdgeOrder("lex"), "strong", 5)
    assert report.removed_per_iteration == [1, 0]


def test_iterated_k1_equals_once():
    # One iteration is exactly the first pass of a longer run.
    g = random_grid_graph(8, 0.5, np.random.default_rng(5))
    out_a, rep_a = collapse_iterated(g, EdgeOrder("revlex"), "strong", 1)
    _, rep_b = collapse_iterated(g, EdgeOrder("revlex"), "strong", 3)
    assert rep_a.removal_log == rep_b.removal_log[:1]
    assert out_a == without(g, [(e.u, e.v) for e in rep_b.removal_log[0]])


def test_mode_and_iteration_validation():
    g = make_k3()
    with pytest.raises(ValueError, match="unknown mode"):
        collapse_iterated(g, EdgeOrder("lex"), "both", 1)
    with pytest.raises(ValueError, match=">= 1"):
        collapse_iterated(g, EdgeOrder("lex"), "strong", 0)


def test_determinism():
    g = random_grid_graph(10, 0.5, np.random.default_rng(7))
    runs = [
        collapse_iterated(g, EdgeOrder("random", seed=3), "full", 2) for _ in range(2)
    ]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].removal_log == runs[1][1].removal_log


# -- legality and homology ------------------------------------------------------


def test_removals_were_legal_at_their_moment():
    rng = np.random.default_rng(11)
    for mode in ("strong", "full"):
        g = random_grid_graph(8, 0.6, rng)
        _, report = collapse_iterated(g, EdgeOrder("revlex"), mode, 2)
        state = g
        for iteration in report.removal_log:
            for e in iteration:
                if mode == "strong":
                    assert is_strongly_dominated(state, e) is not None
                assert brute_force_filtration_dominated(state, e)
                state = without(state, [(e.u, e.v)])


def test_homology_preserved_on_random_instances():
    rng = np.random.default_rng(13)
    for i in range(12):
        g = random_grid_graph(7, (0.3, 0.5, 0.8)[i % 3], rng)
        for mode in ("strong", "full"):
            for kind in ("lex", "revlex", "random"):
                out, _ = collapse_iterated(g, _order(kind), mode, 2)
                report = verify_collapse(g, out)
                assert report.ok, report.detail


def test_full_removes_at_least_strong():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_grid_graph(9, 0.6, rng)
        _, rep_s = collapse_iterated(g, EdgeOrder("revlex"), "strong", 1)
        _, rep_f = collapse_iterated(g, EdgeOrder("revlex"), "full", 1)
        assert rep_f.removed_total >= rep_s.removed_total


# -- dense mirror equivalence ----------------------------------------------------


def _both_forms(monkeypatch, graph, iterations):
    """Removal logs of the dense and the list form for every order and mode."""

    def logs():
        return [
            collapse_iterated(graph, _order(kind), mode, iterations)[1].removal_log
            for mode in ("strong", "full")
            for kind in ORDER_KINDS
        ]

    assert graph.n <= collapse.DENSE_LIMIT
    dense = logs()
    with monkeypatch.context() as m:
        m.setattr(collapse, "DENSE_LIMIT", 0)
        return dense, logs()


def test_storage_forms_agree_on_grid_graphs(monkeypatch):
    rng = np.random.default_rng(47)
    for i in range(24):
        g = random_grid_graph(int(rng.integers(6, 13)), (0.3, 0.5, 0.8)[i % 3], rng)
        dense, listed = _both_forms(monkeypatch, g, 2)
        assert dense == listed


def test_storage_forms_agree_on_density_rips(monkeypatch):
    points = generate_dataset("torus", 40, seed=2)
    g = density_rips_graph(points, kde_density(points, kde_bandwidth(pairwise_distances(points))))
    dense, listed = _both_forms(monkeypatch, g, 1)
    assert dense == listed
    # Over half the edges go on average, so the compared logs are long.
    assert sum(len(log[0]) for log in dense) > 5 * g.edge_count()


# Ties and extreme floats: both zeros, the smallest subnormal, 1 and the next
# float above it, and the largest magnitudes.  Ranks must keep every tie and
# every strict order among them.
_EXTREME_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0), 1e308, -1e308]
)


@st.composite
def _extreme_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    grades = st.tuples(_EXTREME_FLOATS, _EXTREME_FLOATS)
    return graph_from_edges(n, [(u, v, draw(grades)) for (u, v), k in zip(pairs, keep) if k])


@settings(max_examples=60, deadline=None)
@given(g=_extreme_graphs())
def test_storage_forms_agree_on_ties_and_extreme_floats(g):
    with pytest.MonkeyPatch.context() as mp:
        dense, listed = _both_forms(mp, g, 2)
    assert dense == listed


@settings(max_examples=40, deadline=None)
@given(g=_extreme_graphs())
def test_returned_vertex_agrees_during_a_pass_on_ties_and_extreme_floats(g):
    # A strong pass in lex and revlex order: on every edge the row store, the
    # mirror and the brute force name the same dominator, the smallest one,
    # as a Python int, and give the same full verdict; a hit removes the edge
    # from both stores, and the reference graph is rebuilt without it.
    for kind in ("lex", "revlex"):
        h, rows, engine = g, _RowStore(g._rows()), _DenseStrongEngine(g)
        edges = g.edge_list()
        for e in map(edges.__getitem__, sort_edges(g, EdgeOrder(kind)).tolist()):
            expected = brute_force_strong_dominator(h, e)
            listed, dense = is_strongly_dominated(h, e, rows), is_strongly_dominated(h, e, engine)
            assert listed == dense == expected
            full = brute_force_filtration_dominated(h, e)
            assert is_filtration_dominated(h, e, rows) == full
            assert is_filtration_dominated(h, e, engine) == full
            if expected is not None:
                assert type(listed) is int and type(dense) is int
                h = without(h, [(e.u, e.v)])
                rows.remove(e.u, e.v)
                engine.remove(e.u, e.v)


_COORDS = st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0, 0.1])


@st.composite
def _degenerate_clouds(draw):
    """Small 2-D or 3-D clouds with exact duplicates and a collinear run."""
    dim = draw(st.sampled_from([2, 3]))
    point = st.tuples(*[_COORDS] * dim)
    base = draw(st.lists(point, min_size=1, max_size=5))
    duplicates = draw(st.lists(st.sampled_from(base), max_size=3))
    start, step = draw(st.sampled_from(base)), draw(point)
    run = [tuple(a + k * d for a, d in zip(start, step)) for k in range(draw(st.integers(0, 4)))]
    cloud = base + duplicates + run
    if len(cloud) < 2:
        cloud += cloud
    return np.array(draw(st.permutations(cloud)))


@settings(max_examples=60, deadline=None)
@given(points=_degenerate_clouds())
def test_degenerate_clouds_fail_cleanly_or_agree_on_both_forms(points):
    # Through the build path: a cloud either fails with the documented
    # ValueError or yields a graph whose removals both forms agree on.
    distances = pairwise_distances(points)
    try:
        h = kde_bandwidth(distances)
    except ValueError as exc:
        message = "all pairwise distances are zero" if distances.max() == 0 else "zero bandwidth"
        assert re.fullmatch(f"degenerate cloud: {message}.*", str(exc))
        return
    g = density_rips_graph(points, kde_density(points, h))
    with pytest.MonkeyPatch.context() as mp:
        dense, listed = _both_forms(mp, g, 2)
    assert dense == listed


def test_dense_engine_matches_list_semantics():
    rng = np.random.default_rng(19)
    for _ in range(30):
        g = random_grid_graph(10, 0.55, rng)
        engine = _DenseStrongEngine(g)
        for e in g.edge_list():
            assert engine.strong_dominator(e) == is_strongly_dominated(g, e)


def test_dense_engine_batch_path():
    # Candidates 2..10 all fail (pairwise non-adjacent), candidate 11 succeeds
    # after the serial budget is spent; then removing one of its edges from
    # both stores leaves none, and on one grade no full domination either.
    sats = list(range(2, 11))
    hub = 11
    edges = [(0, 1, (0.0, 0.0))]
    for w in sats + [hub]:
        edges += [(0, w, (0.0, 0.0)), (1, w, (0.0, 0.0))]
    for w in sats:
        edges.append((w, hub, (0.0, 0.0)))
    g = graph_from_edges(12, edges)
    e = g.edge_list()[0]
    assert (e.u, e.v) == (0, 1)
    rows, engine = _RowStore(g._rows()), _DenseStrongEngine(g)
    listed, dense = rows.strong_dominator(e), engine.strong_dominator(e)
    assert listed == dense == hub
    assert type(listed) is int and type(dense) is int
    rows.remove(sats[0], hub)
    engine.remove(sats[0], hub)
    assert rows.strong_dominator(e) is None and engine.strong_dominator(e) is None
    assert not is_filtration_dominated(g, e, rows) and not is_filtration_dominated(g, e, engine)


def test_dense_engine_tracks_removals():
    # The same removals from both stores, in lockstep: on every edge left,
    # the same strong dominator and the same full verdict.
    rng = np.random.default_rng(23)
    g = random_grid_graph(9, 0.7, rng)
    rows, engine = _RowStore(g._rows()), _DenseStrongEngine(g)
    edges = g.edge_list()
    for i, e in enumerate(edges[: len(edges) // 2]):
        rows.remove(e.u, e.v)
        engine.remove(e.u, e.v)
        for probe in edges[i + 1 :]:
            assert engine.strong_dominator(probe) == rows.strong_dominator(probe)
            full = is_filtration_dominated(g, probe, rows)
            assert is_filtration_dominated(g, probe, engine) == full


def _decoded_mirror(engine) -> np.ndarray:
    """engine.M with its ranks mapped back to grades, +inf where an edge is
    absent and -inf on the diagonal."""
    return np.stack([decoded(engine, axis, engine.M[:, axis]) for axis in (0, 1)], axis=1)


def test_fresh_mirror_marks_absent_pairs_and_diagonal():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = random_grid_graph(9, 0.5, rng)
        engine = _DenseStrongEngine(g)
        M = engine.M
        assert M.shape == (g.n, 2, g.n)
        assert M.dtype == np.int32 and M.nbytes == 8 * g.n * g.n
        assert all((np.diff(values) > 0).all() for values in engine.values)
        grades = _decoded_mirror(engine)
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    expected = (-math.inf, -math.inf)
                else:
                    expected = g.grade_of(u, v)  # NEVER = (inf, inf) when absent
                assert tuple(grades[u, :, v].tolist()) == expected


def test_mirror_after_removals_equals_fresh_mirror():
    # A fresh engine ranks only the grades left, so the ranks may differ;
    # the grades they stand for may not.
    rng = np.random.default_rng(31)
    shuffler = random.Random(31)
    for _ in range(20):
        g = random_grid_graph(int(rng.integers(3, 11)), 0.6, rng)
        engine = _DenseStrongEngine(g)
        edges = g.edge_list()
        shuffler.shuffle(edges)
        k = shuffler.randint(0, len(edges))
        for i, e in enumerate(edges[:k]):
            engine.remove(*((e.u, e.v) if i % 2 else (e.v, e.u)))
        fresh = _DenseStrongEngine(graph_from_edges(g.n, edges[k:]))
        assert engine.M.dtype == fresh.M.dtype == np.int32
        assert engine.M.nbytes == fresh.M.nbytes == 8 * g.n * g.n
        assert np.array_equal(_decoded_mirror(engine), _decoded_mirror(fresh))


def test_dense_engine_never_returns_an_endpoint():
    # With the -1 diagonal an endpoint would pass every test, so it must
    # be excluded from the candidates explicitly.
    g = make_k3()
    rows, engine = _RowStore(g._rows()), _DenseStrongEngine(g)
    for e in g.edge_list():
        assert engine.strong_dominator(e) == rows.strong_dominator(e) == 3 - e.u - e.v
    rows.remove(0, 2)
    engine.remove(0, 2)
    for e in (edge_of(g, 0, 1), edge_of(g, 1, 2)):
        assert engine.strong_dominator(e) is None and rows.strong_dominator(e) is None
        assert not is_filtration_dominated(g, e, engine) and not is_filtration_dominated(g, e, rows)
    single = graph_from_edges(2, [(0, 1, (0.0, 0.0))])
    e = edge_of(single, 0, 1)
    assert _DenseStrongEngine(single).strong_dominator(e) is None
    assert _RowStore(single._rows()).strong_dominator(e) is None


# -- the removal log, held as arrays until read ---------------------------------


def _reference_log(graph, order, mode, iterations):
    """The removal log by definition: each pass walks g.edge_list() in
    sort_edges order and rebuilds g without every edge the mode's predicate
    holds for, until a pass removes nothing."""
    g, log = graph, []
    for _ in range(iterations):
        edges, removed = g.edge_list(), []
        for e in map(edges.__getitem__, sort_edges(g, order).tolist()):
            if mode == "full":
                hit = is_filtration_dominated(g, e)
            else:
                hit = is_strongly_dominated(g, e) is not None
            if hit:
                g = without(g, [(e.u, e.v)])
                removed.append(e)
        log.append(removed)
        if not removed:
            break
    return log


def _exact_log(log):
    # repr tells -0.0 from 0.0, which == does not.
    return [[(e.u, e.v, repr(e.grade[0]), repr(e.grade[1])) for e in p] for p in log]


@settings(max_examples=40, deadline=None)
@given(g=_extreme_graphs(), iterations=st.integers(1, 3), kind=st.sampled_from(ORDER_KINDS))
def test_removal_log_equals_the_reference_loop(g, iterations, kind):
    for mode in MODES:
        expected = _exact_log(_reference_log(g, _order(kind), mode, iterations))
        for limit in (collapse.DENSE_LIMIT, 0):
            for pass_slice in (1, 3, collapse._PASS_SLICE):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(collapse, "DENSE_LIMIT", limit)
                    mp.setattr(collapse, "_PASS_SLICE", pass_slice)
                    _, report = collapse_iterated(g, _order(kind), mode, iterations)
                assert _exact_log(report.removal_log) == expected
                assert report.removed_per_iteration == [len(p) for p in expected]


def test_removal_log_is_python_typed_cached_and_built_on_first_read(monkeypatch):
    points = generate_dataset("torus", 40, seed=4)
    g = density_rips_graph(points, kde_density(points, kde_bandwidth(pairwise_distances(points))))
    for limit in (collapse.DENSE_LIMIT, 0):
        monkeypatch.setattr(collapse, "DENSE_LIMIT", limit)
        out, report = collapse_iterated(g, EdgeOrder("revlex"), "full", 3)
        counts = report.removed_per_iteration
        assert report.removed_total == sum(counts) > 0
        assert report.edges_after == out.edge_count() and report.removed_fraction > 0
        assert "removal_log" not in vars(report)
        log = report.removal_log
        assert log is report.removal_log
        assert [len(p) for p in log] == counts
        for e in (e for p in log for e in p):
            assert type(e) is Edge and type(e.grade) is tuple
            assert [type(x) for x in (e.u, e.v, *e.grade)] == [int, int, float, float]
        popped = log[0].pop()
        assert popped not in report.removal_log[0]
        assert len(report.removal_log[0]) == counts[0] - 1
        assert report.removed_per_iteration == counts


def test_dense_run_keeps_32_bytes_per_kept_edge_and_8_per_removed_edge():
    # The output graph keeps one (u, v, s, t) row of arrays, 32 bytes, per
    # kept edge, and the report an int64 position into the input's arrays,
    # 8 bytes, per removed edge: near 11.6 bytes per input edge here, where
    # 85 % of the edges go.
    points = generate_dataset("torus", 150, seed=1)
    g = density_rips_graph(points, kde_density(points, kde_bandwidth(pairwise_distances(points))))
    assert g.n <= collapse.DENSE_LIMIT and g.edge_count() == 150 * 149 // 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out, report = collapse_iterated(g, EdgeOrder("revlex"), "strong")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kept, removed = out.edge_count(), report.removed_total
    assert removed > 0.8 * g.edge_count() and kept > 0
    assert held < 32 * kept + 8 * removed + 4 * g.edge_count()


def test_report_keeps_removals_as_positions_into_the_input_arrays(monkeypatch):
    # Every pass's positions index the input graph's arrays, later passes'
    # included: together with the output they partition the input's edges.
    points = generate_dataset("torus", 40, seed=4)
    g = density_rips_graph(points, kde_density(points, kde_bandwidth(pairwise_distances(points))))
    for limit in (collapse.DENSE_LIMIT, 0):
        monkeypatch.setattr(collapse, "DENSE_LIMIT", limit)
        out, report = collapse_iterated(g, EdgeOrder("revlex"), "full", 3)
        assert report.source is g and len(report.removed_positions) > 1
        for positions in report.removed_positions:
            assert positions.dtype == np.int64 and not positions.flags.writeable
        seen = np.concatenate(report.removed_positions)
        assert len(np.unique(seen)) == len(seen) == report.removed_total
        kept = np.ones(g.edge_count(), dtype=bool)
        kept[seen] = False
        assert out == graph_from_arrays(g.n, *(x[kept] for x in g.edge_arrays()))


def test_row_form_run_peak_per_edge(monkeypatch):
    # The 20,000 shortest pairs of 1000 points, graded density-Rips style.
    # The rows hold a dict entry and a shared grade tuple of two floats per
    # edge; built in slices with one key per vertex, and walked in slices,
    # the run peaks near 230 bytes per input edge (about 400 with full-length
    # lists of Python objects and a fresh key per half-edge).
    n = 1000
    points = np.random.default_rng(3).uniform(0.0, 1.0, (n, 2))
    dist = pairwise_distances(points)
    density = kde_density(points, kde_bandwidth(dist))
    keep = np.sort(np.argsort(dist, kind="stable")[:20000])
    u, v = (x[keep] for x in np.triu_indices(n, 1))
    g = graph_from_arrays(n, u, v, -np.minimum(density[u], density[v]), dist[keep])
    monkeypatch.setattr(collapse, "DENSE_LIMIT", 0)
    tracemalloc.start()
    try:
        _, report = collapse_iterated(g, EdgeOrder("revlex"), "strong")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.removed_total > 0
    assert peak < 300 * g.edge_count()


def test_row_form_run_leaves_the_input_rows_alone(monkeypatch):
    # The row-form pass removes from rows of its own: the input's adj, built
    # before the run, is a read-only index that still holds every edge.
    points = generate_dataset("torus", 40, seed=1)
    g = density_rips_graph(points, kde_density(points, kde_bandwidth(pairwise_distances(points))))
    rows = g.adj
    monkeypatch.setattr(collapse, "DENSE_LIMIT", 0)
    _, report = collapse_iterated(g, EdgeOrder("revlex"), "full", 2)
    assert report.removed_total > 0
    assert g.adj is rows and rows == g._rows()
    assert all(rows[e.u][e.v] == rows[e.v][e.u] == e.grade for p in report.removal_log for e in p)


# -- the per-layer trace contract ----------------------------------------------


def test_pass_calls_are_countable_by_wrappers(monkeypatch):
    # perfbench's --trace counts the pass through collapse's module-level
    # names and BifilteredGraph.copy / edge_list, patched on the class: one
    # sort per pass, whose positions are as many as the edges the pass
    # examines, one strong call per examined edge and one full call per
    # strong miss, in both storage forms.  The pass reads the edge arrays,
    # never edge_list(), and copies no graph: each form builds its own store.
    # Wrap them the same way and check.
    points = generate_dataset("torus", 40, seed=1)
    g = density_rips_graph(points, kde_density(points, kde_bandwidth(pairwise_distances(points))))
    logs = []
    for limit in (collapse.DENSE_LIMIT, 0):
        calls: dict[str, list] = {"sort": [], "strong": [], "full": [], "copy": [], "edge_list": []}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[name].append(out)
                return out

            return wrapper

        wrapped = (
            (collapse, "sort_edges", "sort"),
            (collapse, "is_strongly_dominated", "strong"),
            (collapse, "is_filtration_dominated", "full"),
            (BifilteredGraph, "copy", "copy"),
            (BifilteredGraph, "edge_list", "edge_list"),
        )
        with monkeypatch.context() as m:
            m.setattr(collapse, "DENSE_LIMIT", limit)
            for owner, attr, name in wrapped:
                m.setattr(owner, attr, counting(name, getattr(owner, attr)))
            _, report = collapse_iterated(g, EdgeOrder("lex"), "full", 3)

        passes = report.removal_log
        logs.append(passes)
        assert len(passes) >= 2
        assert calls["copy"] == []
        assert len(calls["sort"]) == len(passes)
        assert calls["edge_list"] == []
        remaining = report.edges_before
        for positions, removed in zip(calls["sort"], passes):
            assert isinstance(positions, np.ndarray) and positions.dtype == np.int64
            assert len(positions) == remaining
            remaining -= len(removed)
        assert len(calls["strong"]) == sum(len(positions) for positions in calls["sort"])
        misses = sum(v is None for v in calls["strong"])
        assert len(calls["full"]) == misses > 0
        hits = len(calls["strong"]) - misses + sum(calls["full"])
        assert hits == report.removed_total
        assert any(calls["full"])
    assert logs[0] == logs[1]


def test_dense_runs_never_build_rows_nor_change_their_input(monkeypatch):
    # On the mirror the pass, the triangle count and list and the export all
    # read the stored edge arrays; the row form builds one set of rows, its
    # private store, and never fills the input's adj.  In both forms the
    # input keeps every edge.
    points = generate_dataset("torus", 60, seed=3)
    g = density_rips_graph(points, kde_density(points, kde_bandwidth(pairwise_distances(points))))
    before = graph_from_arrays(g.n, *g.edge_arrays())
    builds = []
    rows = BifilteredGraph._rows
    monkeypatch.setattr(BifilteredGraph, "_rows", lambda self: builds.append(self) or rows(self))
    outputs = []
    for limit, expected_builds in ((collapse.DENSE_LIMIT, 0), (0, 1)):
        with monkeypatch.context() as m:
            m.setattr(collapse, "DENSE_LIMIT", limit)
            collapsed, report = collapse_iterated(g, EdgeOrder("revlex"), "full", 2)
        assert report.removed_total > 0
        sink = io.StringIO()
        export_scc2020(collapsed, enumerate_triangles(collapsed), sink)
        assert count_triangles(collapsed) > 0
        assert len(builds) == expected_builds
        assert "adj" not in vars(g)
        assert g == before and g.edge_count() == before.edge_count()
        outputs.append((collapsed, report.removal_log, sink.getvalue()))
        builds.clear()
    assert outputs[0] == outputs[1]


# -- grade modes -----------------------------------------------------------------


def test_grade_mode_original_identity():
    g = make_gap6()
    assert apply_grade_mode(g, "original") == g


def test_grade_mode_zeroed():
    out = apply_grade_mode(make_gap6(), "zeroed")
    assert all(g[0] == 0.0 for _, _, g in out.edges())
    assert [g[1] for _, _, g in out.edges()] == [g[1] for _, _, g in make_gap6().edges()]


def test_grade_mode_random_deterministic():
    g = make_gap6()
    a = apply_grade_mode(g, "random", seed=9)
    b = apply_grade_mode(g, "random", seed=9)
    c = apply_grade_mode(g, "random", seed=10)
    assert a == b
    assert a != c
    assert [gr[1] for _, _, gr in a.edges()] == [gr[1] for _, _, gr in g.edges()]
    firsts = {gr[0] for _, _, gr in a.edges()}
    assert len(firsts) == g.edge_count()


def test_grade_mode_random_needs_seed():
    with pytest.raises(ValueError, match="seed"):
        apply_grade_mode(make_gap6(), "random")


def test_grade_mode_unknown_kind():
    with pytest.raises(ValueError, match="unknown grade mode"):
        apply_grade_mode(make_gap6(), "shuffled")

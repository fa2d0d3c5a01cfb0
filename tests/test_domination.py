"""The fast domination checks against the brute-force oracle."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicollapse.build import (
    DATASET_KINDS,
    density_rips_graph,
    generate_dataset,
    kde_bandwidth,
    kde_density,
    pairwise_distances,
)
from bicollapse.collapse import collapse_iterated
from bicollapse.core import Edge, edge_neighborhood, graph_from_edges
from bicollapse.domination import (
    _DenseStrongEngine,
    _DominationGrid,
    _RowStore,
    is_filtration_dominated,
    is_strongly_dominated,
)
from bicollapse.oracle import (
    CriticalGrid,
    brute_force_filtration_dominated,
    brute_force_strong_dominator,
    join,
    leq,
    random_grid_graph,
    subgraph_at,
)
from bicollapse.orders import EdgeOrder, sort_edges

from conftest import A, B, V, W, decoded, edge_of, make_k3, make_path3


def grid_of(graph, e, engine=None) -> _DominationGrid:
    return _DominationGrid(*(engine or _RowStore(graph.adj)).neighbor_grades(e)[1:])


def grid_grades(grid: _DominationGrid) -> set:
    return {(float(x), float(y)) for x in grid.xs for y in grid.ys}


def dominated_cells(graph, e, v) -> dict:
    """Grid grade -> does neighbor v dominate e there."""
    ids = [w for w, _ in edge_neighborhood(graph.adj, e)]
    grid = grid_of(graph, e)
    i = ids.index(v)
    dom = grid.dominates(i, i + 1)[0]
    return {
        (float(x), float(y)): bool(dom[a, b])
        for a, x in enumerate(grid.xs)
        for b, y in enumerate(grid.ys)
    }


def density_rips(kind: str, n: int, seed: int):
    points = generate_dataset(kind, n, seed=seed)
    return density_rips_graph(points, kde_density(points, kde_bandwidth(pairwise_distances(points))))


# -- fixture-level checks ------------------------------------------------------


def test_strong_k3():
    g = make_k3()
    assert is_strongly_dominated(g, edge_of(g, 0, 1)) == 2


def test_strong_gap6_none(gap6):
    assert is_strongly_dominated(gap6, edge_of(gap6, A, B)) is None


def test_strong_path_none():
    g = make_path3()
    assert is_strongly_dominated(g, edge_of(g, 0, 1)) is None


def test_region_gap6_candidate_v(gap6):
    # v fails only where y is present (t >= 2): the edge vy is missing.
    assert dominated_cells(gap6, edge_of(gap6, A, B), V) == {
        (0.0, 0.0): True,
        (2.0, 0.0): True,
        (0.0, 2.0): False,
        (2.0, 2.0): False,
    }


def test_region_gap6_candidate_w(gap6):
    # w fails where x is present (s >= 2) but the edge wx, critical at (2, 2),
    # is not yet.
    assert dominated_cells(gap6, edge_of(gap6, A, B), W) == {
        (0.0, 0.0): True,
        (2.0, 0.0): False,
        (0.0, 2.0): True,
        (2.0, 2.0): True,
    }


def test_region_k3_empty(k3):
    assert dominated_cells(k3, edge_of(k3, 0, 1), 2) == {(0.0, 0.0): True}


def test_critical_query_set_gap6(gap6):
    got = grid_grades(grid_of(gap6, edge_of(gap6, A, B)))
    assert got == {(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)}


def test_critical_query_set_k3(k3):
    assert grid_grades(grid_of(k3, edge_of(k3, 0, 1))) == {(0.0, 0.0)}


def test_critical_query_set_isolated_edge():
    # With no edge neighbor the edge fails the early exit, in both forms,
    # before a grid is built; the grid of the empty neighborhood is empty.
    g = graph_from_edges(2, [(0, 1, (1.0, 2.0))])
    e = edge_of(g, 0, 1)
    assert grid_grades(grid_of(g, e)) == set()
    assert not brute_force_filtration_dominated(g, e)
    for form in (None, _DenseStrongEngine(g)):
        assert not is_filtration_dominated(g, e, form)


def test_full_gap6_dominated_but_not_strongly(gap6):
    e = edge_of(gap6, A, B)
    assert is_filtration_dominated(gap6, e)
    assert is_strongly_dominated(gap6, e) is None
    assert brute_force_filtration_dominated(gap6, e)


def test_full_two_unadjacent_witnesses():
    g = graph_from_edges(
        4,
        [
            (0, 1, (0.0, 0.0)),
            (0, 2, (0.0, 0.0)),
            (1, 2, (0.0, 0.0)),
            (0, 3, (0.0, 0.0)),
            (1, 3, (0.0, 0.0)),
        ],
    )
    e = edge_of(g, 0, 1)
    assert not is_filtration_dominated(g, e)
    assert not brute_force_filtration_dominated(g, e)


def test_full_k3(k3):
    assert is_filtration_dominated(k3, edge_of(k3, 0, 1))


def test_full_empty_neighborhood():
    g = make_path3()
    assert not is_filtration_dominated(g, edge_of(g, 0, 1))


@pytest.mark.parametrize("dense", [False, True], ids=["rows", "mirror"])
@pytest.mark.parametrize("predicate", [is_strongly_dominated, is_filtration_dominated])
@pytest.mark.parametrize(
    "e",
    [
        Edge(2, 3, (5.0, 5.0)),
        Edge(0, 1, (7.0, 7.0)),
        Edge(1, 1, (1.0, 1.0)),
        Edge(0, 4, (1.0, 1.0)),
        Edge(-1, 1, (1.0, 1.0)),
        Edge(1, -1, (1.0, 1.0)),
    ],
    ids=["missing-pair", "wrong-grade", "loop", "id-past-n", "negative-u", "negative-v"],
)
def test_predicates_reject_an_edge_not_in_the_graph(e, predicate, dense):
    # Both storage forms answer only for edges of the graph, with one message.
    # Row -1 is row 3, which holds the edge (3, 1) at (1.0, 1.0): the row
    # form must not answer for (-1, 1) as if it were that edge.
    pairs = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    g = graph_from_edges(4, [(u, v, (1.0, 1.0)) for u, v in pairs])
    engine = _DenseStrongEngine(g) if dense else None
    message = re.escape(f"edge ({e.u}, {e.v}) with grade {e.grade} not in graph")
    with pytest.raises(ValueError, match=message):
        predicate(g, e, engine)


def test_full_check_exits_without_a_neighbor_at_crit():
    # Every edge neighbor of (0, 1) enters strictly above crit_t, then
    # strictly above crit_s: at (max s, 0), resp. (0, max t), no neighbor
    # is present, so (0, 1) is not dominated.  In the third input 2 enters
    # at (0, 1) and 4 at (1, 0): each axis attains crit(e), but at crit(e)
    # itself no neighbor is present.
    for late2, late4 in (((0.0, 1.0),) * 2, ((1.0, 0.0),) * 2, ((0.0, 1.0), (1.0, 0.0))):
        edges = [(0, 1, (0.0, 0.0)), (0, 2, late2), (1, 2, (0.0, 0.0)), (2, 3, (0.0, 0.0))]
        edges += [(0, 4, (0.0, 0.0)), (1, 4, late4)]
        g = graph_from_edges(5, edges)
        e = edge_of(g, 0, 1)
        assert not brute_force_filtration_dominated(g, e)
        for form in (None, _DenseStrongEngine(g)):
            assert not is_filtration_dominated(g, e, form)
        # Vertex 3 becomes a neighbor at crit(e).  With the edge 3-4 it
        # dominates at every grade; without it, nothing dominates once 2
        # and 4, which are not adjacent, are both present.
        for extra in ([(3, 4, (0.0, 0.0))], []):
            h = graph_from_edges(5, edges + [(0, 3, (0.0, 0.0)), (1, 3, (0.0, 0.0))] + extra)
            e = edge_of(h, 0, 1)
            expected = brute_force_filtration_dominated(h, e)
            assert expected == bool(extra)
            for form in (None, _DenseStrongEngine(h)):
                assert is_filtration_dominated(h, e, form) == expected


def _four_searchsorted_ranks(crit, entry_s, entry_t, block_s, block_t):
    """Reference: the entry and join ranks, each axis ranked twice."""
    xs = np.unique(np.append(entry_s, crit[0]))
    ys = np.unique(np.append(entry_t, crit[1]))
    rank_s, rank_t = np.searchsorted(xs, entry_s), np.searchsorted(ys, entry_t)
    entry = rank_s * (len(ys) + 1) + rank_t
    join = np.maximum(rank_s, np.searchsorted(xs, block_s)) * (len(ys) + 1)
    join += np.maximum(rank_t, np.searchsorted(ys, block_t))
    np.fill_diagonal(join, entry)
    return xs, ys, entry, join


# Few values, so entries and joins tie often, -0.0 sits next to 0.0, and
# absent edges (+inf) and -inf, the decoded diagonal of both forms, appear.
_TIE_FLOATS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])
_BLOCK_FLOATS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, math.inf, -math.inf])


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 7), data=st.data())
def test_grid_ranks_match_four_searchsorted(k, data):
    crit = (data.draw(_TIE_FLOATS), data.draw(_TIE_FLOATS))
    # Entries are joined with crit(e), as neighbor_grades returns them, and
    # attain it in s and in t, as the full check's early exit ensures.
    entry = np.maximum(np.array(data.draw(st.lists(
        st.tuples(_TIE_FLOATS, _TIE_FLOATS), min_size=k, max_size=k))).reshape(k, 2), crit)
    entry[data.draw(st.integers(0, k - 1)), 0] = crit[0]
    entry[data.draw(st.integers(0, k - 1)), 1] = crit[1]
    block = np.array(data.draw(st.lists(
        _BLOCK_FLOATS, min_size=2 * k * k, max_size=2 * k * k))).reshape(k, k, 2)
    # The diagonal is below every grade, as neighbor_grades returns it.
    block[np.arange(k), np.arange(k)] = -math.inf
    args = (crit, entry[:, 0], entry[:, 1], block[..., 0], block[..., 1])
    grid = _DominationGrid(*args[1:])
    xs, ys, entry_rank, join_rank = _four_searchsorted_ranks(*args)
    assert np.array_equal(grid.xs, xs) and np.array_equal(grid.ys, ys)
    assert grid.shape == (len(xs) + 1, len(ys) + 1)
    assert np.array_equal(grid._entry, entry_rank)
    assert np.array_equal(grid._join, join_rank)


# -- randomized equivalence with the oracle -----------------------------------


def test_full_check_matches_oracle():
    # Integer grades on a small grid tie often, so a < / <= slip in the
    # early exit, the entry-grade probe or the grid shows here, in either form.
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        g = random_grid_graph(int(rng.integers(4, 11)), 0.55, rng)
        engine = _DenseStrongEngine(g)
        for e in g.edge_list():
            expected = brute_force_filtration_dominated(g, e)
            assert is_filtration_dominated(g, e) == expected, f"rows disagree on edge {e}"
            assert is_filtration_dominated(g, e, engine) == expected, f"mirror disagrees on {e}"
            checked += 1
    assert checked > 300


def test_entry_grade_probe_rejects_before_the_grid(gap6, monkeypatch):
    # Two neighbors enter at crit(e) and are not adjacent: the probe at that
    # entry grade answers False, so the grid is never built.  On gap6 every
    # entry grade is covered, and only the grid can answer True.
    g = graph_from_edges(4, [(0, 1, (0.0, 0.0)), (0, 2, (0.0, 0.0)), (1, 2, (0.0, 0.0)),
                             (0, 3, (0.0, 0.0)), (1, 3, (0.0, 0.0))])

    def no_grid(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr("bicollapse.domination._DominationGrid", no_grid)
    for form in (None, _DenseStrongEngine(g)):
        assert not is_filtration_dominated(g, edge_of(g, 0, 1), form)

    built = []

    def recorded(*args):
        built.append(len(args[0]))
        return _DominationGrid(*args)

    monkeypatch.setattr("bicollapse.domination._DominationGrid", recorded)
    for form in (None, _DenseStrongEngine(gap6)):
        assert is_filtration_dominated(gap6, edge_of(gap6, A, B), form)
    assert built == [4, 4]


def test_strong_implies_full_and_oracle_confirms():
    rng = np.random.default_rng(37)
    strong_hits = 0
    for _ in range(40):
        g = random_grid_graph(int(rng.integers(4, 11)), 0.6, rng)
        grid = CriticalGrid.of_graph(g)
        for e in g.edge_list():
            v = is_strongly_dominated(g, e)
            if v is None:
                continue
            strong_hits += 1
            assert is_filtration_dominated(g, e)
            for p in grid.points():
                if not leq(e.grade, p):
                    continue
                adj = subgraph_at(g, p)
                nbrs = adj[e.u] & adj[e.v]
                assert v in nbrs
                assert all(w == v or w in adj[v] for w in nbrs)
    assert strong_hits > 50


def test_strong_returns_smallest_dominator():
    # In a complete graph at one grade every non-endpoint dominates.
    g = graph_from_edges(
        5, [(u, v, (0.0, 0.0)) for u in range(5) for v in range(u + 1, 5)]
    )
    assert is_strongly_dominated(g, edge_of(g, 1, 3)) == 0


def test_strong_is_smallest_brute_force_dominator():
    # Integer grades on a small grid make ties between candidates common.
    rng = np.random.default_rng(43)
    hits = 0
    for _ in range(20):
        g = random_grid_graph(int(rng.integers(4, 9)), 0.7, rng)
        for e in g.edge_list():
            expected = brute_force_strong_dominator(g, e)
            assert is_strongly_dominated(g, e) == expected
            hits += expected is not None
    assert hits > 20


def test_region_query_matches_plain_domination():
    # For every neighbor v and every grade c of the grid: the grid says v
    # dominates e at c iff v dominates e in the plain graph at c.  The grid
    # holds every join of two entry grades, in both storage forms; the dense
    # form's grid is in ranks, equal to the row form's once decoded.
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = random_grid_graph(8, 0.55, rng)
        engine = _DenseStrongEngine(g)
        for e in g.edge_list():
            nbhd = edge_neighborhood(g.adj, e)
            grid = grid_of(g, e)
            dense = grid_of(g, e, engine)
            # Both forms return the same grades, the diagonal below every grade.
            rows, mirror = _RowStore(g.adj).neighbor_grades(e)[1:], engine.neighbor_grades(e)[1:]
            for i, (r, m) in enumerate(zip(rows, mirror)):
                assert np.array_equal(r, decoded(engine, i % 2, m))
            assert np.array_equal(grid.xs, decoded(engine, 0, dense.xs))
            assert np.array_equal(grid.ys, decoded(engine, 1, dense.ys))
            dom = grid.dominates(0, len(nbhd))
            assert np.array_equal(dom, dense.dominates(0, len(nbhd)))
            assert {join(p, q) for _, p in nbhd for _, q in nbhd} <= grid_grades(grid)
            for a, x in enumerate(grid.xs):
                for b, y in enumerate(grid.ys):
                    c = (float(x), float(y))
                    assert leq(e.grade, c)
                    adj = subgraph_at(g, c)
                    nbrs = adj[e.u] & adj[e.v]
                    for i, (v, _) in enumerate(nbhd):
                        dominates = v in nbrs and all(w == v or w in adj[v] for w in nbrs)
                        assert dominates == dom[i, a, b]


def test_full_check_matches_oracle_on_density_rips():
    # Distinct real grades, unlike the integer grid graphs: every edge of an
    # 8-point cloud of each dataset, before and after a strong revlex pass.
    verdicts = []
    for seed, kind in enumerate(DATASET_KINDS):
        g = density_rips(kind, 8, seed)
        thinned, _ = collapse_iterated(g, EdgeOrder("revlex"), "strong", 1)
        for graph in (g, thinned):
            engine = _DenseStrongEngine(graph)
            for e in graph.edge_list():
                expected = brute_force_filtration_dominated(graph, e)
                assert is_filtration_dominated(graph, e) == expected, (kind, e)
                assert is_filtration_dominated(graph, e, engine) == expected, (kind, e)
                verdicts.append(expected)
    assert sum(verdicts) > 50 and verdicts.count(False) > 20


def test_full_check_memory_flat_on_large_neighborhood():
    # The earliest lex edge of a complete 200-point graph has 198 edge
    # neighbors; counting all of them at once would take about 180 MB.
    g = density_rips("uniform", 200, 1)
    engine = _DenseStrongEngine(g)
    e = g.edge_list()[sort_edges(g, EdgeOrder("lex"))[0]]
    assert len(edge_neighborhood(g.adj, e)) == 198
    for form in (None, engine):
        tracemalloc.start()
        try:
            is_filtration_dominated(g, e, form)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

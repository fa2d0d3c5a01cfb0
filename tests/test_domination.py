"""The fast domination checks against the brute-force oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bicollapse.core import NEVER, edge_neighborhood, graph_from_edges, leq, subgraph_at
from bicollapse.domination import (
    DeltaRegion,
    StripeSet,
    critical_query_set,
    is_filtration_dominated,
    is_strongly_dominated,
    non_domination_region,
)
from bicollapse.oracle import (
    CriticalGrid,
    brute_force_filtration_dominated,
    random_grid_graph,
)

from conftest import A, B, V, W, X, Y, edge_of, make_gap6, make_k3, make_path3
from test_oracle import brute_force_strong_dominators


# -- Delta regions ------------------------------------------------------------


def test_delta_empty_iff_q_leq_p():
    assert DeltaRegion((1.0, 1.0), (1.0, 1.0)).is_empty
    assert DeltaRegion((2.0, 2.0), (1.0, 1.0)).is_empty
    assert not DeltaRegion((1.0, 1.0), (2.0, 1.0)).is_empty
    assert not DeltaRegion((1.0, 1.0), NEVER).is_empty


def test_delta_stripe_decomposition():
    r = DeltaRegion((0.0, 0.0), (2.0, 3.0))
    assert r.vertical() == [(0.0, 2.0, 0.0)]
    assert r.horizontal() == [(0.0, 3.0, 0.0)]
    # Degenerate in s: only the horizontal stripe survives.
    r = DeltaRegion((2.0, 0.0), (2.0, 2.0))
    assert r.vertical() == []
    assert r.horizontal() == [(0.0, 2.0, 2.0)]


def test_delta_membership_matches_definition():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = tuple(rng.integers(0, 4, 2).astype(float))
        q = tuple(rng.integers(0, 4, 2).astype(float))
        if rng.random() < 0.2:
            q = NEVER
        region = DeltaRegion(p, q)
        stripes = StripeSet.from_regions([region])
        for _ in range(20):
            g = tuple(rng.integers(-1, 5, 2).astype(float))
            expected = leq(p, g) and not leq(q, g)
            assert region.contains(g) == expected
            assert stripes.contains(g) == expected


def test_stripe_merge_preserves_union():
    rng = np.random.default_rng(23)
    for _ in range(50):
        regions = []
        for _ in range(rng.integers(1, 8)):
            p = tuple(rng.integers(0, 5, 2).astype(float))
            q = tuple(rng.integers(0, 7, 2).astype(float))
            if rng.random() < 0.25:
                q = NEVER
            regions.append(DeltaRegion(p, q))
        merged = StripeSet.from_regions(regions)
        for lo, hi, _ in merged.vertical + merged.horizontal:
            assert lo < hi
        for fam in (merged.vertical, merged.horizontal):
            for (l1, h1, _), (l2, _, _) in zip(fam, fam[1:]):
                assert h1 <= l2
        for _ in range(20):
            g = tuple((rng.integers(-2, 14, 2) / 2).astype(float))
            assert merged.contains(g) == any(r.contains(g) for r in regions)


def test_empty_stripe_set_query():
    empty = StripeSet.from_regions([])
    assert not empty.contains((0.0, 0.0))
    assert empty.is_empty()


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
    region = non_domination_region(gap6, edge_of(gap6, A, B), V)
    # Sole contribution is the full quadrant at (0, 2), from missing edge vy.
    for g in [(0.0, 2.0), (2.0, 2.0), (5.0, 3.0)]:
        assert region.contains(g)
    for g in [(0.0, 0.0), (2.0, 0.0), (9.0, 1.0)]:
        assert not region.contains(g)


def test_region_gap6_candidate_w(gap6):
    region = non_domination_region(gap6, edge_of(gap6, A, B), W)
    assert region.vertical == []
    assert region.horizontal == [(0.0, 2.0, 2.0)]
    assert region.contains((2.0, 0.0))
    assert region.contains((3.0, 1.5))
    assert not region.contains((2.0, 2.0))
    assert not region.contains((0.0, 0.0))


def test_region_k3_empty(k3):
    region = non_domination_region(k3, edge_of(k3, 0, 1), 2)
    assert region.is_empty()


def test_region_rejects_non_neighbor(k3):
    with pytest.raises(ValueError, match="not an edge neighbor"):
        non_domination_region(k3, edge_of(k3, 0, 1), 1)


def test_critical_query_set_gap6(gap6):
    got = critical_query_set(gap6, edge_of(gap6, A, B))
    assert got == {(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)}


def test_critical_query_set_k3(k3):
    assert critical_query_set(k3, edge_of(k3, 0, 1)) == {(0.0, 0.0)}


def test_critical_query_set_isolated_edge():
    g = graph_from_edges(2, [(0, 1, (1.0, 2.0))])
    assert critical_query_set(g, edge_of(g, 0, 1)) == {(1.0, 2.0)}


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


# -- randomized equivalence with the oracle -----------------------------------


def test_full_check_matches_oracle():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        g = random_grid_graph(int(rng.integers(4, 11)), 0.55, rng)
        for e in g.edge_list():
            assert is_filtration_dominated(g, e) == brute_force_filtration_dominated(
                g, e
            ), f"disagreement on edge {e}"
            checked += 1
    assert checked > 300


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
            winners = brute_force_strong_dominators(g, e)
            assert is_strongly_dominated(g, e) == (winners[0] if winners else None)
            hits += bool(winners)
    assert hits > 20


def test_region_query_matches_plain_domination():
    # For every neighbor v and grid grade c >= crit(e): c outside v's
    # non-domination region iff v dominates e in the plain graph at c.
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = random_grid_graph(8, 0.55, rng)
        if g.edge_count() == 0:
            continue
        grid = CriticalGrid.of_graph(g)
        for e in g.edge_list():
            for v, _ in edge_neighborhood(g, e):
                region = non_domination_region(g, e, v)
                for c in grid.points():
                    if not leq(e.grade, c):
                        continue
                    adj = subgraph_at(g, c)
                    nbrs = adj[e.u] & adj[e.v]
                    dominates = v in nbrs and all(
                        w == v or w in adj[v] for w in nbrs
                    )
                    assert dominates == (not region.contains(c))

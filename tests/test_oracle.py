"""Ground-truth checks for the brute-force oracles themselves.

The fixture claims (domination status of the 6-vertex fixture, homology
effects of removing edges from small shapes) are confirmed here by literal
evaluation before any fast algorithm relies on them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bicollapse.core import Edge, graph_from_edges
from bicollapse.oracle import (
    CriticalGrid,
    SimplexBudgetExceeded,
    brute_force_filtration_dominated,
    brute_force_strong_dominator,
    dominators_by_grade,
    graded_cliques,
    grid_barcodes,
    leq,
    plain_dominators,
    random_grid_graph,
    subgraph_at,
    verify_collapse,
)

from conftest import (
    A, B, V, W, X, Y, edge_of, make_cycle4, make_gap6, make_k3, make_path3, without,
)


# -- plain-graph domination ---------------------------------------------------


def test_plain_dominators_triangle():
    adj = [{1, 2}, {0, 2}, {0, 1}]
    assert plain_dominators(adj, 0, 1) == {2}


def test_plain_dominators_no_common_neighbor():
    adj = [{1}, {0, 2}, {1}]
    assert plain_dominators(adj, 0, 1) == set()


def test_plain_dominators_two_unadjacent_witnesses():
    # 0-1 has common neighbors 2 and 3, but 2 and 3 are not adjacent.
    adj = [{1, 2, 3}, {0, 2, 3}, {0, 1}, {0, 1}]
    assert plain_dominators(adj, 0, 1) == set()
    adj[2].add(3)
    adj[3].add(2)  # once they are adjacent, each dominates
    assert plain_dominators(adj, 0, 1) == {2, 3}


# -- fixture claims, confirmed by brute force --------------------------------


def test_gap6_edge_ab_is_filtration_dominated():
    g = make_gap6()
    assert brute_force_filtration_dominated(g, edge_of(g, A, B))


def test_gap6_edge_ab_has_no_strong_dominator():
    g = make_gap6()
    assert brute_force_strong_dominator(g, edge_of(g, A, B)) is None


def test_gap6_per_grade_witnesses():
    # v fails once t reaches 2 (no vy edge), w fails at (2, 0) (wx arrives
    # late): every grade has a witness but no vertex covers all four.
    g = make_gap6()
    expected = {
        (0.0, 0.0): {V, W},
        (0.0, 2.0): {W},
        (2.0, 0.0): {V},
        (2.0, 2.0): {W, X},
    }
    found = dominators_by_grade(g, edge_of(g, A, B))
    assert list(found.items()) == list(expected.items())  # in grid order


def test_gap6_removal_preserves_homology():
    g = make_gap6()
    reduced = without(g, [(A, B)])
    assert verify_collapse(g, reduced).ok


def test_k3_edge_dominated_and_removable():
    g = make_k3()
    assert brute_force_filtration_dominated(g, edge_of(g, 0, 1))
    assert brute_force_strong_dominator(g, edge_of(g, 0, 1)) == 2
    reduced = without(g, [(0, 1)])
    assert verify_collapse(g, reduced).ok


def test_path_edge_not_dominated():
    g = make_path3()
    assert not brute_force_filtration_dominated(g, edge_of(g, 0, 1))


def test_cycle4_removal_flagged():
    g = make_cycle4()
    assert not brute_force_filtration_dominated(g, edge_of(g, 0, 1))
    mutated = without(g, [(0, 1)])
    report = verify_collapse(g, mutated)
    assert not report.ok
    assert "barcode mismatch" in report.detail


def test_brute_force_rejects_stale_edge():
    g = make_k3()
    with pytest.raises(ValueError, match="not in graph"):
        brute_force_filtration_dominated(g, Edge(0, 1, (5.0, 5.0)))
    with pytest.raises(ValueError, match="not in graph"):
        brute_force_strong_dominator(g, Edge(0, 1, (5.0, 5.0)))


def test_grid_restriction_is_lossless():
    # Deciding domination on a strictly finer grid never changes the answer.
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = random_grid_graph(7, 0.5, rng)
        if g.edge_count() == 0:
            continue
        grid = CriticalGrid.of_graph(g)
        fine = CriticalGrid(
            tuple(sorted(set(grid.xs) | {x + 0.5 for x in grid.xs})),
            tuple(sorted(set(grid.ys) | {y + 0.5 for y in grid.ys})),
        )
        for e in g.edge_list():
            coarse_answer = brute_force_filtration_dominated(g, e)
            fine_answer = all(
                plain_dominators(subgraph_at(g, p), e.u, e.v)
                for p in fine.points()
                if leq(e.grade, p)
            )
            assert coarse_answer == fine_answer


# -- clique bifiltration barcodes ----------------------------------------------


def covered(bars, p, *indices):
    """The bars of dimension p covering every index: a Betti number for one
    index, the rank of the inclusion between two."""
    return sum(1 for d, b, e in bars if d == p and b <= min(indices) and e > max(indices))


def row_barcode(graph, y):
    return grid_barcodes(graded_cliques(graph), CriticalGrid.of_graph(graph))[("row", y)]


def betti_at(graph, grade):
    """(b0, b1, b2) at a grid grade, read from the barcode of its row."""
    i = CriticalGrid.of_graph(graph).xs.index(grade[0])
    return tuple(covered(row_barcode(graph, grade[1]), p, i) for p in range(3))


def test_clique_complex_counts():
    def counts(graph):
        sizes = [len(c) for _, c in graded_cliques(graph)]
        return [sizes.count(k) for k in (1, 2, 3, 4)]

    assert counts(make_k3()) == [3, 3, 1, 0]
    k4 = graph_from_edges(4, [(u, v, (float(u), float(v))) for u in range(4) for v in range(u + 1, 4)])
    assert counts(k4) == [4, 6, 4, 1]
    # A clique's grade is the join of its edges' grades; vertices are at -inf.
    assert dict((c, g) for g, c in graded_cliques(k4))[(0, 1, 2)] == (1.0, 2.0)
    assert graded_cliques(k4)[0] == ((-math.inf, -math.inf), (0,))


def test_betti_known_shapes():
    assert betti_at(make_k3(), (0.0, 0.0)) == (1, 0, 0)
    assert betti_at(make_cycle4(), (0.0, 0.0)) == (1, 1, 0)

    # Octahedron: K6 minus a perfect matching; its clique complex is a sphere.
    non_edges = {(0, 1), (2, 3), (4, 5)}
    octa = graph_from_edges(
        6,
        [
            (u, v, (0.0, 0.0))
            for u in range(6)
            for v in range(u + 1, 6)
            if (u, v) not in non_edges
        ],
    )
    assert betti_at(octa, (0.0, 0.0)) == (1, 0, 1)


def test_betti_counts_isolated_vertices():
    g = graph_from_edges(5, [(0, 1, (0.0, 0.0)), (2, 3, (0.0, 0.0))])
    assert betti_at(g, (0.0, 0.0)) == (3, 0, 0)


def test_gap6_betti_table():
    g = make_gap6()
    assert {p: betti_at(g, p) for p in CriticalGrid.of_graph(g).points()} == {
        (0.0, 0.0): (3, 0, 0),
        (2.0, 0.0): (2, 0, 0),
        (0.0, 2.0): (2, 0, 0),
        (2.0, 2.0): (1, 0, 0),
    }


def test_triangle_free_euler_characteristic():
    # On bipartite (hence triangle-free) graphs b0 - b1 = n - m at each grade.
    rng = np.random.default_rng(9)
    for _ in range(20):
        full = random_grid_graph(8, 0.7, rng)
        cross = [
            Edge(u, v, g) for u, v, g in full.edges() if (u < 4) != (v < 4)
        ]
        g = graph_from_edges(8, cross)
        if g.edge_count() == 0:
            continue
        grid = CriticalGrid.of_graph(g)
        for p in grid.points():
            adj = subgraph_at(g, p)
            m = sum(len(s) for s in adj) // 2
            b0, b1, b2 = betti_at(g, p)
            assert b0 - b1 == g.n - m
            assert b2 == 0


def test_inclusion_rank_detects_dying_cycle():
    # One square dies (diagonal fills it) exactly when another is born: Betti
    # numbers alone agree in dimension 1, the bars expose the swap.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    later = [(4, 5), (5, 6), (6, 7), (4, 7), (0, 2)]
    g = graph_from_edges(
        8,
        [(u, v, (0.0, 0.0)) for u, v in edges]
        + [(u, v, (1.0, 0.0)) for u, v in later],
    )
    bars = row_barcode(g, 0.0)
    assert [bar for bar in bars if bar[0] == 1] == [(1, 0, 1), (1, 1, math.inf)]
    assert covered(bars, 1, 0) == covered(bars, 1, 1) == 1
    assert covered(bars, 1, 0, 1) == 0
    assert covered(bars, 0, 0, 1) == 2
    # The same graph with the diagonal left out keeps the first cycle alive.
    keep = graph_from_edges(
        8,
        [(u, v, (0.0, 0.0)) for u, v in edges]
        + [(u, v, (1.0, 0.0)) for u, v in later[:-1]],
    )
    kept = row_barcode(keep, 0.0)
    assert [bar for bar in kept if bar[0] == 1] == [(1, 0, math.inf), (1, 1, math.inf)]
    assert covered(kept, 1, 0, 1) == 1


def test_rows_and_columns_agree_on_betti_numbers():
    # Grade (xs[i], ys[j]) lies on row ys[j] at index i and on column xs[i]
    # at index j: two independent reductions must count the same classes.
    rng = np.random.default_rng(13)
    for _ in range(30):
        g = random_grid_graph(int(rng.integers(4, 9)), 0.5, rng)
        grid = CriticalGrid.of_graph(g)
        lines = grid_barcodes(graded_cliques(g), grid)
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                for p in range(3):
                    assert covered(lines[("row", y)], p, i) == covered(lines[("column", x)], p, j)


def test_simplex_budget_enforced():
    g = make_gap6()
    with pytest.raises(SimplexBudgetExceeded):
        verify_collapse(g, g, max_simplices=5)


def test_verify_collapse_rejects_a_vertex_count_mismatch():
    g = make_k3()
    with pytest.raises(ValueError, match="^vertex counts differ: 3 vs 4$"):
        verify_collapse(g, graph_from_edges(4, []))


def test_verify_collapse_rejects_foreign_edge():
    g = make_k3()
    other = graph_from_edges(3, [(0, 1, (1.0, 1.0))])
    with pytest.raises(ValueError, match="not in original"):
        verify_collapse(g, other)

"""Independent brute-force verifiers at desk scale.

Two oracles.  The domination oracle lists an edge's plain-graph dominators at
every critical grid grade.  The homology oracle compares F2 barcodes of
the clique bifiltration in dimensions 0..2 along every row and every column
of the critical grid, one column reduction per line.  These are fibered
barcodes (RIVET, Lesnick-Wright 2015): a Betti number at a grid grade counts
the bars that cover its index, and the rank of a one-step inclusion counts
the bars that cover both indices of the step.  Both oracles are meant for
small inputs (n <= 12) and serve as the ground truth the fast algorithms are
tested against.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .core import BifilteredGraph, Edge, Grade, _require_edge, graph_from_edges


# -- grades and plain graphs -------------------------------------------------


def leq(g1: Grade, g2: Grade) -> bool:
    """Coordinate-wise partial order on grades."""
    return g1[0] <= g2[0] and g1[1] <= g2[1]


def join(g1: Grade, g2: Grade) -> Grade:
    """Least upper bound: the coordinate-wise maximum.  core.NEVER absorbs."""
    return (max(g1[0], g2[0]), max(g1[1], g2[1]))


def subgraph_at(graph: BifilteredGraph, g: Grade) -> list[set[int]]:
    """Plain graph at grade g: adjacency sets containing exactly the edges
    with crit(e) <= g.  Vertices are present at all grades."""
    gs, gt = g
    return [{v for v, (s, t) in row.items() if s <= gs and t <= gt} for row in graph.adj]


# -- critical grid ---------------------------------------------------------


@dataclass(frozen=True)
class CriticalGrid:
    """Product grid of the distinct edge-grade coordinates of a graph.

    Domination status and clique complexes are constant on the cells between
    consecutive critical coordinates, so exhaustive checks over this grid are
    exhaustive over all of R^2.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    @classmethod
    def of_graph(cls, graph: BifilteredGraph) -> "CriticalGrid":
        xs = sorted({g[0] for _, _, g in graph.edges()})
        ys = sorted({g[1] for _, _, g in graph.edges()})
        return cls(tuple(xs), tuple(ys))

    def points(self) -> list[Grade]:
        return [(x, y) for x in self.xs for y in self.ys]


# -- domination oracle -----------------------------------------------------


def plain_dominators(adj: list[set[int]], a: int, b: int) -> set[int]:
    """The common neighbors of a and b adjacent to every other common neighbor.

    Edge {a, b} of the plain graph adj is dominated iff this set is non-empty.
    """
    nbrs = adj[a] & adj[b]
    return {v for v in nbrs if nbrs <= adj[v] | {v}}


def dominators_by_grade(graph: BifilteredGraph, e: Edge) -> dict[Grade, set[int]]:
    """plain_dominators of e at every critical grid grade >= crit(e), in grid order."""
    _require_edge(graph.adj, e)
    grades = [g for g in CriticalGrid.of_graph(graph).points() if leq(e.grade, g)]
    return {g: plain_dominators(subgraph_at(graph, g), e.u, e.v) for g in grades}


def brute_force_filtration_dominated(graph: BifilteredGraph, e: Edge) -> bool:
    """Is e dominated in the plain graph at every grid grade >= crit(e)?"""
    return all(dominators_by_grade(graph, e).values())


def brute_force_strong_dominator(graph: BifilteredGraph, e: Edge) -> int | None:
    """The smallest vertex that dominates e at every grid grade >= crit(e), or None."""
    return min(set.intersection(*dominators_by_grade(graph, e).values()), default=None)


# -- clique bifiltration barcodes -------------------------------------------


class SimplexBudgetExceeded(ValueError):
    def __init__(self, count: int, budget: int):
        super().__init__(f"clique complex has {count} simplices, budget is {budget}")
        self.count = count
        self.budget = budget


#: A bar (dimension, birth, death) in entry indices; death is math.inf for a
#: class that never dies.
Bar = tuple[int, int, float]


def graded_cliques(
    graph: BifilteredGraph, max_simplices: int = 50_000
) -> list[tuple[Grade, tuple[int, ...]]]:
    """Every clique of at most 4 vertices, graded by the join of its edges' grades.

    Cliques are ascending vertex tuples, listed by size, then vertices.
    Vertices get the grade (-inf, -inf): they are present at all grades.
    Raises SimplexBudgetExceeded once the count passes max_simplices; the
    whole clique complex is the largest complex on any grid.
    """
    adj = graph.adj
    level = [((-math.inf, -math.inf), (v,)) for v in range(graph.n)]
    cliques = list(level)
    for _ in range(3):  # edges, triangles, tetrahedra
        level = [
            (reduce(join, (adj[u][w] for u in clique), grade), clique + (w,))
            for grade, clique in level
            for w in adj[clique[-1]]
            if w > clique[-1] and all(w in adj[u] for u in clique)
        ]
        cliques += level
        if len(cliques) > max_simplices:
            raise SimplexBudgetExceeded(len(cliques), max_simplices)
    return cliques


def barcode(filtration: Iterable[tuple[int, tuple[int, ...]]]) -> list[Bar]:
    """F2 barcode of a one-parameter filtered simplicial complex.

    filtration holds (entry index, simplex) pairs, each face of a simplex
    entering no later than the simplex.  Sorted by (entry, dimension,
    vertices), every face precedes its cofaces.  Each boundary column is an
    int bitset over those positions; left to right, the earlier reduced
    column with the same pivot (highest set bit) is added to it until its
    pivot is new or it is zero.  A zero column gives birth to a class, a
    nonzero one kills the class born at its pivot.  Returns the sorted bars
    in dimensions 0..2 without zero-length bars: tetrahedra only kill classes.
    """
    order = sorted(filtration, key=lambda pair: (pair[0], len(pair[1]), pair[1]))
    position = {simplex: i for i, (_, simplex) in enumerate(order)}
    owner: dict[int, int] = {}  # pivot position -> the reduced column with that pivot
    death: dict[int, int] = {}  # pivot position -> entry of the simplex that kills it
    positive = []
    for j, (entry, simplex) in enumerate(order):
        faces = itertools.combinations(simplex, len(simplex) - 1) if len(simplex) > 1 else ()
        column = sum(1 << position[face] for face in faces)
        while column and (pivot := column.bit_length() - 1) in owner:
            column ^= owner[pivot]
        if column:
            owner[pivot] = column
            death[pivot] = entry
        else:
            positive.append(j)
    bars = []
    for i in positive:
        birth, simplex = order[i]
        end = death.get(i, math.inf)
        if len(simplex) <= 3 and birth < end:
            bars.append((len(simplex) - 1, birth, end))
    return sorted(bars)


def grid_barcodes(
    cliques: list[tuple[Grade, tuple[int, ...]]], grid: CriticalGrid
) -> dict[tuple[str, float], list[Bar]]:
    """The barcode along every row and every column of the grid.

    On the row at height y, a simplex with t <= y enters at the index of the
    first grid coordinate xs[i] >= s; columns work the same way with the
    axes swapped.  Keys are ("row", y) and ("column", x), rows first.  A
    Betti number at grade (xs[i], y) counts the row's bars that cover i, and
    the rank of the inclusion one step right counts those covering i and i+1.
    """
    out = {}
    for axis, k, along, across in (("row", 0, grid.xs, grid.ys), ("column", 1, grid.ys, grid.xs)):
        for c in across:
            out[(axis, c)] = barcode(
                (bisect_left(along, grade[k]), simplex)
                for grade, simplex in cliques
                if grade[1 - k] <= c and grade[k] <= along[-1]
            )
    return out


# -- collapse verification ---------------------------------------------------


@dataclass
class VerifyReport:
    ok: bool
    detail: str | None = None


def verify_collapse(
    graph: BifilteredGraph,
    reduced: BifilteredGraph,
    max_simplices: int = 50_000,
) -> VerifyReport:
    """Certify that a reduced graph has the same clique-bifiltration homology.

    Both graphs' barcodes in dimensions 0..2 along every row and column of
    the original graph's critical grid must agree exactly; they hold every
    Betti number and one-step inclusion rank on the grid.  Reports the first
    line that differs.
    """
    if reduced.n != graph.n:
        raise ValueError(f"vertex counts differ: {graph.n} vs {reduced.n}")
    for u, v, g in reduced.edges():
        if graph.grade_of(u, v) != g:
            raise ValueError(f"edge ({u}, {v})@{g} of reduced graph not in original")
    grid = CriticalGrid.of_graph(graph)
    full = grid_barcodes(graded_cliques(graph, max_simplices), grid)
    red = grid_barcodes(graded_cliques(reduced, max_simplices), grid)
    for (axis, c), bars in full.items():
        if red[(axis, c)] != bars:
            return VerifyReport(
                False, f"barcode mismatch on the {axis} at {c}: {bars} vs {red[(axis, c)]}"
            )
    return VerifyReport(True)


# -- random instances --------------------------------------------------------


def random_grid_graph(
    n: int,
    p: float,
    rng: np.random.Generator,
    grid_side: int = 4,
) -> BifilteredGraph:
    """Erdos-Renyi graph with i.i.d. integer grades from a grid_side^2 grid."""
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            grade = (float(rng.integers(grid_side)), float(rng.integers(grid_side)))
            edges.append(Edge(u, v, grade))
    return graph_from_edges(n, edges)

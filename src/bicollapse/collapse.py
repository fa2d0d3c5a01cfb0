"""Greedy removal of (strongly) filtration-dominated edges.

One pass visits each edge exactly once in a chosen order and removes it when
the mode's predicate holds on the current reduced graph; iterations repeat
the pass on the survivors.  The order comes from orders.sort_edges, one
array sort of the graph's edges per pass.  The predicates live in
domination.py; the pass calls each once per edge and hands it the dense
grade mirror when there is one.  This module only decides that: a mirror
for graphs up to DENSE_LIMIT vertices (complete density-Rips graphs in the
hundreds of vertices), none above it, where the (n, 2, n) mirror costs
more memory than it saves time.  Both forms remove the same edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import BifilteredGraph, Edge, graph_from_edges
from .domination import _DenseStrongEngine, is_filtration_dominated, is_strongly_dominated
from .orders import EdgeOrder, sort_edges

MODES = ("strong", "full")

# Above this vertex count the (n, 2, n) mirror is not worth its memory.
DENSE_LIMIT = 2048


# -- reports and grade modes --------------------------------------------------


@dataclass
class CollapseReport:
    """What a run removed, per iteration, and how long the passes took."""

    edges_before: int
    edges_after: int
    removed_per_iteration: list[int]
    wall_time_per_iteration: list[float]
    mode: str
    order: EdgeOrder
    removal_log: list[list[Edge]] = field(default_factory=list)

    @property
    def removed_total(self) -> int:
        return self.edges_before - self.edges_after

    @property
    def removed_fraction(self) -> float:
        return self.removed_total / self.edges_before if self.edges_before else 0.0


GRADE_MODES = ("original", "zeroed", "random")


@dataclass(frozen=True)
class GradeMode:
    """Transformation of the first grade coordinate before a run.

    zeroed sets every first coordinate to 0 (a single-parameter
    filtration); random replaces each edge's first coordinate by an
    independent uniform draw.  Per-vertex draws would be vacuous here: on a
    complete graph the first coordinate of every candidate's edges is then
    dominated by the entry grades automatically, leaving the distance axis
    to decide alone.
    """

    kind: str = "original"

    def __post_init__(self):
        if self.kind not in GRADE_MODES:
            raise ValueError(f"unknown grade mode {self.kind!r}, expected one of {GRADE_MODES}")


def apply_grade_mode(
    graph: BifilteredGraph, mode: GradeMode, seed: int | None = None
) -> BifilteredGraph:
    """New graph with transformed first coordinates; second coordinates kept.

    Edges iterate in the graph's canonical (u, v) order, so the random mode
    is deterministic for a fixed seed.
    """
    if mode.kind == "original":
        return graph.copy()
    if mode.kind == "zeroed":
        edges = [Edge(u, v, (0.0, g[1])) for u, v, g in graph.edges()]
        return graph_from_edges(graph.n, edges)
    if seed is None:
        raise ValueError("random grade mode requires a seed")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(0.0, 1.0, graph.edge_count())
    edges = [
        Edge(u, v, (float(s), g[1]))
        for (u, v, g), s in zip(graph.edges(), draws)
    ]
    return graph_from_edges(graph.n, edges)


# -- greedy passes -------------------------------------------------------------


def _run_pass(
    graph: BifilteredGraph,
    order: EdgeOrder,
    mode: str,
    engine: _DenseStrongEngine | None,
) -> tuple[list[Edge], float]:
    """One predicate pass over the current edges; mutates graph (and engine).

    In full mode the cheap strong check runs first: a strong dominator is in
    particular a filtration dominator, so the expensive per-grade check only
    runs on strong failures.
    """
    ordered = sort_edges(graph, order)
    removed: list[Edge] = []
    start = time.perf_counter()
    for e in ordered:
        hit = is_strongly_dominated(graph, e, engine) is not None
        if not hit and mode == "full":
            hit = is_filtration_dominated(graph, e, engine)
        if hit:
            graph.remove_edge(e.u, e.v)
            if engine is not None:
                engine.remove(e.u, e.v)
            removed.append(e)
    elapsed = time.perf_counter() - start
    return removed, elapsed


def collapse_iterated(
    graph: BifilteredGraph,
    order: EdgeOrder,
    mode: str = "strong",
    iterations: int = 1,
) -> tuple[BifilteredGraph, CollapseReport]:
    """Up to `iterations` passes, re-sorting survivors each time.

    Stops early once a pass removes nothing: further passes would see the
    same graph and remove nothing too.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if iterations < 1:
        raise ValueError("iteration count must be >= 1")
    out = graph.copy()
    engine = _DenseStrongEngine(out) if out.n <= DENSE_LIMIT else None
    report = CollapseReport(
        edges_before=graph.edge_count(),
        edges_after=graph.edge_count(),
        removed_per_iteration=[],
        wall_time_per_iteration=[],
        mode=mode,
        order=order,
    )
    for _ in range(iterations):
        removed, elapsed = _run_pass(out, order, mode, engine)
        report.removed_per_iteration.append(len(removed))
        report.wall_time_per_iteration.append(elapsed)
        report.removal_log.append(removed)
        if not removed:
            break
    report.edges_after = out.edge_count()
    return out, report

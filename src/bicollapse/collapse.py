"""Greedy removal of (strongly) filtration-dominated edges.

One pass visits each edge exactly once in a chosen order and removes it when
the mode's predicate holds on the current reduced graph; iterations repeat
the pass on the survivors.  The pass walks the edge columns at the positions
orders.sort_edges gives, _PASS_SLICE at a time, one Edge per predicate call,
and CollapseReport keeps its removals as positions into the input graph's
arrays: neither holds a list of the edges or a Python object per edge.
apply_grade_mode rewrites first grade coordinates before a run, for the
grade-structure experiments.  This module
decides the storage form of the run's private store: for graphs up to
DENSE_LIMIT vertices (complete density-Rips graphs in the hundreds of
vertices) the dense mirror of grade ranks, so no adjacency rows are built;
above it, where the int32 (n, 2, n) mirror (8 n^2 bytes) costs more memory
than it saves time, rows built for the run alone.  A hit leaves the store
only; each pass's survivors become a new graph over the arrays a keep
mask gathers, and the input never changes.  Both forms remove the same edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .core import BifilteredGraph, Edge, _as_edges, _graph_from_new_arrays
from .domination import _DenseStrongEngine, _RowStore
from .domination import is_filtration_dominated, is_strongly_dominated
from .orders import EdgeOrder, sort_edges

MODES = ("strong", "full")

# Above this vertex count the (n, 2, n) mirror is not worth its memory.
DENSE_LIMIT = 2048
# Edges of the pass order that a pass holds as Python objects at once.
_PASS_SLICE = 1 << 12


# -- reports and grade modes --------------------------------------------------


@dataclass
class CollapseReport:
    """What a run removed, per iteration, and how long the passes took.

    removed_positions holds each pass's removals in pass order as read-only
    int64 positions into source.edge_arrays(), 8 bytes per removed edge, so
    the report keeps its input graph alive.  removed_arrays, the same
    edges as (u, v, s, t) arrays, is gathered from them on each read;
    removal_log, the same edges as Edges, is built on first read and
    cached, so later reads see any change made to it.
    """

    edges_before: int
    wall_time_per_iteration: list[float]
    mode: str
    order: EdgeOrder
    source: BifilteredGraph = field(compare=False, repr=False)
    removed_positions: list[np.ndarray] = field(default_factory=list, compare=False)

    @property
    def removed_arrays(self) -> list[tuple[np.ndarray, ...]]:
        columns = self.source.edge_arrays()
        return [tuple(x[p] for x in columns) for p in self.removed_positions]

    @cached_property
    def removal_log(self) -> list[list[Edge]]:
        return [list(_as_edges(*removed)) for removed in self.removed_arrays]

    @property
    def removed_per_iteration(self) -> list[int]:
        return [len(p) for p in self.removed_positions]

    @property
    def removed_total(self) -> int:
        return sum(self.removed_per_iteration)

    @property
    def edges_after(self) -> int:
        return self.edges_before - self.removed_total

    @property
    def removed_fraction(self) -> float:
        return self.removed_total / self.edges_before if self.edges_before else 0.0


GRADE_MODES = ("original", "zeroed", "random")


def apply_grade_mode(
    graph: BifilteredGraph, kind: str, seed: int | None = None
) -> BifilteredGraph:
    """New graph with the first grade coordinates transformed by kind, one
    of GRADE_MODES; second coordinates kept.

    original gives the same edges in a new graph.  zeroed sets every first
    coordinate to 0 (a single-parameter filtration).  random replaces each
    edge's first coordinate by an independent uniform draw, drawn in the
    graph's (u, v) edge order, so it is deterministic for a fixed seed.  The
    draws are per edge: per-vertex draws would be vacuous here, since on a
    complete graph the first coordinate of every candidate's edges is then
    dominated by the entry grades automatically, leaving the distance axis
    to decide alone.
    """
    if kind not in GRADE_MODES:
        raise ValueError(f"unknown grade mode {kind!r}, expected one of {GRADE_MODES}")
    if kind == "random" and seed is None:
        raise ValueError("random grade mode requires a seed")
    u, v, s, t = graph.edge_arrays()
    if kind == "zeroed":
        s = np.zeros(len(u))
    elif kind == "random":
        s = np.random.default_rng(seed).uniform(0.0, 1.0, len(u))
    return _graph_from_new_arrays(graph.n, u, v, s, t)


# -- greedy passes -------------------------------------------------------------


def _run_pass(
    graph: BifilteredGraph, order: EdgeOrder, mode: str, store: _DenseStrongEngine | _RowStore
) -> tuple[BifilteredGraph, np.ndarray, float]:
    """One predicate pass: the graph after it, the positions of its removals
    in graph.edge_arrays() and the seconds.

    store holds graph's edges; a hit leaves the store only, and the
    survivors become a new graph.  In full mode the cheap strong check runs
    first: a strong dominator is in particular a filtration dominator, so
    the expensive per-grade check only runs on strong failures.
    """
    positions = sort_edges(graph, order)
    columns = graph.edge_arrays()
    hits = np.zeros(len(positions), dtype=bool)
    start = time.perf_counter()
    parts = np.split(positions, range(_PASS_SLICE, len(positions), _PASS_SLICE))
    for i, e in enumerate(chain.from_iterable(_as_edges(*(x[p] for x in columns)) for p in parts)):
        hit = is_strongly_dominated(graph, e, store) is not None
        if not hit and mode == "full":
            hit = is_filtration_dominated(graph, e, store)
        if hit:
            store.remove(e.u, e.v)
            hits[i] = True
    removed = positions[hits]
    kept = np.ones(len(positions), dtype=bool)
    kept[removed] = False
    graph = _graph_from_new_arrays(graph.n, *(x[kept] for x in columns))
    return graph, removed, time.perf_counter() - start


def collapse_iterated(
    graph: BifilteredGraph,
    order: EdgeOrder,
    mode: str = "strong",
    iterations: int = 1,
) -> tuple[BifilteredGraph, CollapseReport]:
    """Up to `iterations` passes, re-sorting survivors each time; graph is
    never changed, and the result is a new graph.

    Stops early once a pass removes nothing: further passes would see the
    same graph and remove nothing too.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if iterations < 1:
        raise ValueError("iteration count must be >= 1")
    store = _DenseStrongEngine(graph) if graph.n <= DENSE_LIMIT else _RowStore(graph._rows())
    out, origin = graph, None  # origin: graph's position of each edge of out, once they differ
    report = CollapseReport(graph.edge_count(), [], mode, order, graph)
    for i in range(iterations):
        out, removed, elapsed = _run_pass(out, order, mode, store)
        report.wall_time_per_iteration.append(elapsed)
        positions = removed if origin is None else origin[removed]
        positions.flags.writeable = False
        report.removed_positions.append(positions)
        if not len(removed) or i == iterations - 1:
            break
        origin = np.delete(np.arange(graph.edge_count()) if origin is None else origin, removed)
    return out, report

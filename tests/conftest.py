from __future__ import annotations

import math

import numpy as np
import pytest

from bicollapse.core import BifilteredGraph, Edge, graph_from_arrays, graph_from_edges

# Canonical 6-vertex fixture: an edge (A, B) that is filtration-dominated but
# not strongly so.  Vertex ids: a=0, b=1, v=2, w=3, x=4, y=5; (v, y) absent.
A, B, V, W, X, Y = range(6)

GAP6_EDGES = [
    (A, B, (0.0, 0.0)),
    (A, V, (0.0, 0.0)),
    (B, V, (0.0, 0.0)),
    (A, W, (0.0, 0.0)),
    (B, W, (0.0, 0.0)),
    (V, W, (0.0, 0.0)),
    (A, X, (2.0, 0.0)),
    (B, X, (2.0, 0.0)),
    (V, X, (2.0, 0.0)),
    (A, Y, (0.0, 2.0)),
    (B, Y, (0.0, 2.0)),
    (W, Y, (0.0, 2.0)),
    (W, X, (2.0, 2.0)),
    (X, Y, (2.0, 2.0)),
]


def make_gap6() -> BifilteredGraph:
    return graph_from_edges(6, GAP6_EDGES)


def make_k3(grade=(0.0, 0.0)) -> BifilteredGraph:
    return graph_from_edges(3, [(0, 1, grade), (0, 2, grade), (1, 2, grade)])


def make_path3(grade=(0.0, 0.0)) -> BifilteredGraph:
    return graph_from_edges(3, [(0, 1, grade), (1, 2, grade)])


def make_cycle4(grade=(0.0, 0.0)) -> BifilteredGraph:
    return graph_from_edges(4, [(0, 1, grade), (1, 2, grade), (2, 3, grade), (0, 3, grade)])


@pytest.fixture
def gap6() -> BifilteredGraph:
    return make_gap6()


@pytest.fixture
def k3() -> BifilteredGraph:
    return make_k3()


def edge_of(graph: BifilteredGraph, u: int, v: int) -> Edge:
    return Edge(u, v, graph.grade_of(u, v))


def without(graph: BifilteredGraph, pairs) -> BifilteredGraph:
    """A new graph of graph's edges but the pairs (u, v), each of which must
    be an edge, built through graph_from_arrays: a reference for removals
    that shares no code with either store of the collapse pass."""
    gone = {(min(u, v), max(u, v)) for u, v in pairs}
    u, v, s, t = graph.edge_arrays()
    keep = np.array([pair not in gone for pair in zip(u.tolist(), v.tolist())], dtype=bool)
    assert len(keep) - np.count_nonzero(keep) == len(gone), "a pair is not an edge"
    return graph_from_arrays(graph.n, u[keep], v[keep], s[keep], t[keep])


def decoded(engine, axis: int, ranks) -> np.ndarray:
    """Ranks on one axis of a dense engine's mirror mapped back to grades
    through its value table: the absent value to +inf, the -1 diagonal to
    -inf."""
    values = engine.values[axis]
    absent = np.iinfo(np.int32).max
    ranks = np.asarray(ranks)
    assert ((ranks == -1) | (ranks == absent) | ((0 <= ranks) & (ranks < len(values)))).all()
    table = np.append(values, [math.inf, -math.inf])
    return table[np.where(ranks == absent, len(values), ranks)]

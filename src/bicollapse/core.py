"""Grade arithmetic and the 1-critical bifiltered graph representation.

A grade is a point (s, t) in the plane, partially ordered coordinate-wise.
Every edge of a bifiltered graph carries a unique critical grade at which it
enters the filtration; vertices are present at all grades.  The graph is
stored as symmetric adjacency rows, one dict per vertex from neighbor id to
edge grade with keys in ascending id: looking up, testing or deleting an
edge takes constant time, and walking a row visits neighbors in id order.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, TextIO

Grade = tuple[float, float]

#: Grade of a missing edge: above every finite grade, absorbing under join.
#: Valid as a query result, never as a stored edge grade.
NEVER: Grade = (math.inf, math.inf)


def leq(g1: Grade, g2: Grade) -> bool:
    """Coordinate-wise partial order on grades."""
    return g1[0] <= g2[0] and g1[1] <= g2[1]


def join(g1: Grade, g2: Grade) -> Grade:
    """Least upper bound: the coordinate-wise maximum.  NEVER absorbs."""
    return (max(g1[0], g2[0]), max(g1[1], g2[1]))


def is_finite(g: Grade) -> bool:
    return math.isfinite(g[0]) and math.isfinite(g[1])


class Edge(NamedTuple):
    u: int
    v: int
    grade: Grade


class EdgeNeighbor(NamedTuple):
    """A common neighbor w of an edge e, with the grade at which it becomes
    an edge neighbor: entry = join(crit({a,w}), crit({b,w}), crit(e))."""

    w: int
    entry: Grade


class BifilteredGraph:
    """1-critical bifiltered graph over vertices 0..n-1.

    adj[u] maps each neighbor of u to the grade of their edge, with keys in
    ascending id.  graph_from_edges sorts every row once; deleting a key
    keeps the others in order, so rows stay sorted across in-place edge
    removals.  Instances are safe to share read-only; mutation (edge
    removal) must be exclusive.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self.adj: list[dict[int, Grade]] = [{} for _ in range(n)]

    # -- queries ---------------------------------------------------------

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def grade_of(self, u: int, v: int) -> Grade:
        """Critical grade of edge {u, v}, or NEVER if the edge is absent."""
        return self.adj[u].get(v, NEVER)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[Edge]:
        """All edges as Edge(u, v, grade) with u < v, sorted by (u, v)."""
        for u, row in enumerate(self.adj):
            for v, g in row.items():
                if v > u:
                    yield Edge(u, v, g)

    def edge_list(self) -> list[Edge]:
        return list(self.edges())

    # -- mutation --------------------------------------------------------

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge {u, v} in place; the rows keep their order."""
        try:
            del self.adj[u][v]
            del self.adj[v][u]
        except KeyError:
            raise ValueError(f"edge ({u}, {v}) not in graph") from None

    def copy(self) -> "BifilteredGraph":
        g = BifilteredGraph(self.n)
        g.adj = [dict(row) for row in self.adj]
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BifilteredGraph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"BifilteredGraph(n={self.n}, m={self.edge_count()})"


def graph_from_edges(n: int, edges: Iterable[Edge | tuple]) -> BifilteredGraph:
    """Build a bifiltered graph from (u, v, grade) triples, in any order.

    Rejects self-loops, ids outside 0..n-1, non-finite grades and duplicate
    unordered pairs.
    """
    g = BifilteredGraph(n)
    adj = g.adj
    for u, v, grade in edges:
        grade = (float(grade[0]), float(grade[1]))
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if not is_finite(grade):
            raise ValueError(f"edge ({u}, {v}) has non-finite grade {grade}")
        if v in adj[u]:
            raise ValueError(f"duplicate edge pair ({min(u, v)}, {max(u, v)})")
        adj[u][v] = adj[v][u] = grade
    g.adj = [dict(sorted(row.items())) for row in adj]
    return g


def edge_neighborhood(graph: BifilteredGraph, e: Edge) -> list[EdgeNeighbor]:
    """Common neighbors of e's endpoints with their entry grades.

    Walks the shorter of the two rows and looks each neighbor up in the
    other; output sorted by vertex id.
    entry(w) = join(crit({a,w}), crit({b,w}), crit(e)).
    """
    a, b, (es, et) = e.u, e.v, e.grade
    if graph.grade_of(a, b) != e.grade:
        raise ValueError(f"edge ({a}, {b}) with grade {e.grade} not in graph")
    short, other = graph.adj[a], graph.adj[b]
    if len(other) < len(short):
        short, other = other, short
    out: list[EdgeNeighbor] = []
    for w, (s1, t1) in short.items():
        g2 = other.get(w)
        if g2 is not None:
            out.append(EdgeNeighbor(w, (max(s1, g2[0], es), max(t1, g2[1], et))))
    return out


def subgraph_at(graph: BifilteredGraph, g: Grade) -> list[set[int]]:
    """Plain graph at grade g: adjacency sets containing exactly the edges
    with crit(e) <= g.  Vertices are present at all grades."""
    gs, gt = g
    return [{v for v, (s, t) in row.items() if s <= gs and t <= gt} for row in graph.adj]


# -- edge-list text format ------------------------------------------------
#
# Header line "n m", then m lines "u v s t" (whitespace-separated, 0-based
# ids, grades as decimal floats).  Input and output of collapse runs.


def write_edge_list(graph: BifilteredGraph, sink: TextIO) -> None:
    edges = graph.edge_list()
    sink.write(f"{graph.n} {len(edges)}\n")
    for u, v, (s, t) in edges:
        sink.write(f"{u} {v} {s!r} {t!r}\n")


def read_edge_list(source: TextIO) -> BifilteredGraph:
    lines = [ln for ln in (raw.strip() for raw in source) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"malformed edge line {ln!r}, expected 'u v s t'")
        edges.append((int(parts[0]), int(parts[1]), (float(parts[2]), float(parts[3]))))
    return graph_from_edges(n, edges)

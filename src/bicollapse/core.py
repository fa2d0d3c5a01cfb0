"""Grade arithmetic and the 1-critical bifiltered graph representation.

A grade is a point (s, t) in the plane, partially ordered coordinate-wise.
Every edge of a bifiltered graph carries a unique critical grade at which it
enters the filtration; vertices are present at all grades.  The graph is
stored as symmetric adjacency rows, one dict per vertex from neighbor id to
edge grade with keys in ascending id: looking up, testing or deleting an
edge takes constant time, and walking a row visits neighbors in id order.
Graphs are built from numpy arrays: graph_from_arrays takes parallel edge
arrays (u, v, s, t), checks them with vectorized tests and fills the rows
from the sorted half-edges.  graph_from_edges and read_edge_list (one bulk
np.loadtxt parse) both feed it, so the checks exist once.  Edge is the
one record type: edges() and edge_list() give the edges as Edge(u, v,
grade) named tuples and edge_arrays(), the inverse of graph_from_arrays,
as arrays, while edge_neighborhood, on the hot path of every domination
check, intersects two rows' key views into plain (w, entry) tuples.
Every text reader, read_edge_list here and those of build and expand,
takes a path or a text stream through _text_lines, which strips each line
and skips blank and # lines.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

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


class Edge(NamedTuple):
    u: int
    v: int
    grade: Grade


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

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The edges as the parallel arrays (u, v, s, t) that graph_from_arrays
        takes, u < v, in edge_list() order: graph_from_arrays(n, *edge_arrays())
        equals the graph."""
        u = np.repeat(np.arange(self.n), [len(row) for row in self.adj])
        v = np.fromiter(chain.from_iterable(self.adj), np.int64, len(u))
        flat = chain.from_iterable(chain.from_iterable(row.values() for row in self.adj))
        grades = np.fromiter(flat, float, 2 * len(u)).reshape(-1, 2)
        up = u < v
        return u[up], v[up], grades[up, 0], grades[up, 1]

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


def graph_from_arrays(n: int, u, v, s, t) -> BifilteredGraph:
    """Build a bifiltered graph from parallel arrays, edge i being {u[i], v[i]}
    with grade (s[i], t[i]); edges in any order.

    Ids must have an integer dtype.  Rejects self-loops, ids outside
    0..n-1, non-finite grades and duplicate unordered pairs, all checked
    with numpy; the first offending edge in input order is reported.  Each
    row is filled in ascending id from the sorted half-edges, and both
    halves of an edge share one grade tuple.
    """
    g = BifilteredGraph(n)
    u, v = np.asarray(u), np.asarray(v)
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    m = len(u)
    if m == 0:
        return g
    if u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got {u.dtype} and {v.dtype}")
    u, v = u.astype(np.int64), v.astype(np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loop = u == v
    outside = (lo < 0) | (hi >= n)
    nonfinite = ~(np.isfinite(s) & np.isfinite(t))
    # Out-of-range pairs get distinct negative keys, so they never collide.
    key = np.where(outside, -1 - np.arange(m), lo * n + hi)
    order = np.argsort(key, kind="stable")
    later = order[1:][key[order[1:]] == key[order[:-1]]]
    duplicate = np.zeros(m, dtype=bool)
    duplicate[later] = True
    bad = loop | outside | nonfinite | duplicate
    if bad.any():
        i = int(np.argmax(bad))
        a, b = u[i].item(), v[i].item()
        if loop[i]:
            raise ValueError(f"self-loop at vertex {a}")
        if outside[i]:
            raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
        if nonfinite[i]:
            raise ValueError(f"edge ({a}, {b}) has non-finite grade {(float(s[i]), float(t[i]))}")
        raise ValueError(f"duplicate edge pair ({min(a, b)}, {max(a, b)})")

    grades = list(zip(s.tolist(), t.tolist()))
    rows, cols = np.concatenate((u, v)), np.concatenate((v, u))
    half = np.argsort(rows * n + cols)
    cells = zip(cols[half].tolist(), [grades[i] for i in (half % m).tolist()])
    g.adj = [dict(islice(cells, k)) for k in np.bincount(rows, minlength=n).tolist()]
    return g


def graph_from_edges(n: int, edges: Iterable[Edge | tuple]) -> BifilteredGraph:
    """Build a bifiltered graph from (u, v, grade) triples, in any order.

    The triples become the parallel arrays of graph_from_arrays, which runs
    the checks.
    """
    edges = list(edges)
    if not edges:
        return graph_from_arrays(n, [], [], [], [])
    u, v, grades = zip(*edges)
    s, t = zip(*grades)
    return graph_from_arrays(n, u, v, s, t)


def _require_edge(graph: BifilteredGraph, e: Edge) -> None:
    """Raise ValueError unless e is an edge of graph with exactly e's grade."""
    if graph.grade_of(e.u, e.v) != e.grade:
        raise ValueError(f"edge ({e.u}, {e.v}) with grade {e.grade} not in graph")


def edge_neighborhood(graph: BifilteredGraph, e: Edge) -> list[tuple[int, Grade]]:
    """Common neighbors w of e's endpoints as plain (w, entry) tuples.

    Intersects the two rows' key views; output sorted by vertex id.  entry
    is the grade at which w becomes an edge neighbor, join(crit({a,w}),
    crit({b,w}), crit(e)), and is e.grade itself when that join is crit(e).
    """
    _require_edge(graph, e)
    es, et = grade = e.grade
    ra, rb = graph.adj[e.u], graph.adj[e.v]
    out: list[tuple[int, Grade]] = []
    for w in sorted(ra.keys() & rb.keys()):
        (s1, t1), (s2, t2) = ra[w], rb[w]
        if s1 <= es and t1 <= et and s2 <= es and t2 <= et:
            out.append((w, grade))
        else:
            out.append((w, (max(s1, s2, es), max(t1, t2, et))))
    return out


def subgraph_at(graph: BifilteredGraph, g: Grade) -> list[set[int]]:
    """Plain graph at grade g: adjacency sets containing exactly the edges
    with crit(e) <= g.  Vertices are present at all grades."""
    gs, gt = g
    return [{v for v, (s, t) in row.items() if s <= gs and t <= gt} for row in graph.adj]


# -- text formats ---------------------------------------------------------
#
# Edge list: header line "n m", then m lines "u v s t" (whitespace-separated,
# 0-based ids, grades as decimal floats).  Input and output of collapse runs.


def _text_lines(source: str | Path | Iterable[str]) -> Iterator[str]:
    """Each line of source, stripped, that is neither blank nor a # comment.
    A str or Path is opened here, and closed when the generator ends or is dropped."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            yield from _text_lines(fh)
        return
    for raw in source:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def write_edge_list(graph: BifilteredGraph, sink: TextIO) -> None:
    edges = graph.edge_list()
    sink.write(f"{graph.n} {len(edges)}\n")
    for u, v, (s, t) in edges:
        sink.write(f"{u} {v} {s!r} {t!r}\n")


def read_edge_list(source: str | Path | Iterable[str]) -> BifilteredGraph:
    """Parse the edge-list text format; the header is checked before the body
    is read, and the body is parsed in one np.loadtxt call, which reads the
    same floats as float() does."""
    lines = _text_lines(source)
    header = next(lines, None)
    if header is None:
        raise ValueError("empty edge-list input")
    head = header.split()
    if len(head) != 2 or not all(h.isdecimal() for h in head):  # no sign, point or exponent
        raise ValueError(f"malformed header {header!r}, expected 'n m'")
    n, m = map(int, head)
    body = list(lines)
    if len(body) != m:
        raise ValueError(f"header promises {m} edges, found {len(body)}")
    if not body:
        return graph_from_arrays(n, [], [], [], [])
    columns = [("u", np.int64), ("v", np.int64), ("s", float), ("t", float)]
    try:
        table = np.loadtxt(body, dtype=columns, comments=None, ndmin=1)
    except ValueError:
        for ln in body:
            if not _is_edge_line(ln):
                raise ValueError(f"malformed edge line {ln!r}, expected 'u v s t'") from None
        raise
    return graph_from_arrays(n, table["u"], table["v"], table["s"], table["t"])


def _is_edge_line(line: str) -> bool:
    parts = line.split()
    try:
        int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3])
    except (IndexError, ValueError):
        return False
    return len(parts) == 4

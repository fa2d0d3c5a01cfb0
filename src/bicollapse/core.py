"""The 1-critical bifiltered graph representation and its text formats.

A grade is a point (s, t) in the plane, partially ordered coordinate-wise.
Every edge of a bifiltered graph carries a unique critical grade at which it
enters the filtration; vertices are present at all grades.  A graph is its
checked edge arrays (u, v, s, t), u < v, sorted by (u, v), and never
changes: graph_from_arrays checks parallel arrays with vectorized tests and
keeps copies of them, sorting only pairs that do not already increase;
graph_from_edges, read_edge_list (one bulk np.loadtxt parse) and the
builders of build and collapse pass arrays they just made through the same
checks, which keep them uncopied, so the checks exist once.  edge_arrays(),
count_triangles, the mirror of the dense pass and the writers read them as
they are.  Symmetric adjacency rows, one dict per vertex from neighbor id
to edge grade with keys in ascending id, in which looking up an edge takes
constant time, are a read-only index built on first use of adj, for one-off
domination queries and the oracles; the row-form pass builds its own rows.
Edge is the one record type: edges() and edge_list() give the edges as
Edge(u, v, grade) named tuples (the collapse pass calls neither), while
edge_neighborhood, on the hot path of every row-form domination check,
intersects two rows' key views into plain (w, entry) tuples.
Every text reader, read_edge_list here and those of build and expand,
takes a path or a text stream through _text_lines, which strips each line,
skips blank and # lines and refuses a data line that is not ASCII, and
reads its numbers through _numbers, the one number grammar, which the
CLI's numeric flags follow too.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

Grade = tuple[float, float]

#: Grade of a missing edge: above every finite grade, absorbing under oracle.join.
#: Valid as a query result, never as a stored edge grade.
NEVER: Grade = (math.inf, math.inf)

#: Half-edges per group of rows whose Python objects BifilteredGraph._rows makes at once.
_ROW_SLICE = 1 << 12


class Edge(NamedTuple):
    u: int
    v: int
    grade: Grade


class BifilteredGraph:
    """1-critical bifiltered graph over vertices 0..n-1.

    The store is edge_arrays(): the checked upper edges (u, v, s, t), u < v,
    sorted by (u, v), read-only and shared by copies.  adj, the adjacency
    rows, is built from them on first use: adj[u] maps each neighbor of u
    to the grade of their edge, keys ascending; all rows share one int per
    id, and both rows of an edge one grade tuple.  No method changes a
    graph, and the rows are an index that must not be written: a pass that
    removes edges builds its own rows with _rows() or its own mirror.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        if 8 * (int(n) + 1) > np.iinfo(np.intp).max:  # an int64 array of n + 1 cells
            raise ValueError(f"vertex count {n} is too large for an array of n + 1 cells")
        self.n = n
        self._arrays = _frozen([], [], [], [])

    @cached_property  # once built, a plain instance attribute: no call per access
    def adj(self) -> list[dict[int, Grade]]:
        return self._rows()

    def _rows(self) -> list[dict[int, Grade]]:
        """New adjacency rows, built in groups of whole rows of at most
        _ROW_SLICE half-edges (or one longer row): row r takes its edges
        (w, r) in a stable sort by r, then its edges (r, w), so keys ascend."""
        u, v, s, t = self._arrays
        ids, grades = list(range(self.n)), list(zip(s.tolist(), t.tolist()))
        below = np.argsort(v, kind="stable")
        up, down = (np.searchsorted(x, np.arange(self.n + 1)) for x in (u, v[below]))
        reach, rows = up + down, []  # reach[r]: the half-edges of rows before r
        for lo, hi in _blocks(reach, _ROW_SLICE):
            lower, upper = below[down[lo] : down[hi]], np.arange(up[lo], up[hi])
            order = np.argsort(np.concatenate((v[lower], u[upper])), kind="stable")
            other = np.concatenate((u[lower], v[upper]))[order].tolist()
            edge = np.concatenate((lower, upper))[order].tolist()
            cells = zip(map(ids.__getitem__, other), map(grades.__getitem__, edge))
            rows += [dict(islice(cells, k)) for k in np.diff(reach[lo : hi + 1]).tolist()]
        return rows

    # -- queries ---------------------------------------------------------

    def edge_count(self) -> int:
        return len(self.edge_arrays()[0])

    def grade_of(self, u: int, v: int) -> Grade:
        """Critical grade of edge {u, v}, or NEVER if the edge is absent; an id
        outside 0..n-1 names no edge, though a negative one indexes a row."""
        return self.adj[u].get(v, NEVER) if 0 <= u < self.n else NEVER

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.adj[u]

    def edges(self) -> Iterator[Edge]:
        """All edges as Edge(u, v, grade) with u < v, sorted by (u, v)."""
        return _as_edges(*self._arrays)

    def edge_list(self) -> list[Edge]:
        return list(self.edges())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The edges as the read-only parallel arrays (u, v, s, t) that
        graph_from_arrays takes, u < v, in edge_list() order:
        graph_from_arrays(n, *edge_arrays()) equals the graph."""
        return self._arrays

    def copy(self) -> "BifilteredGraph":
        """A graph over the same read-only arrays."""
        g = BifilteredGraph(self.n)
        g._arrays = self._arrays
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BifilteredGraph):
            return NotImplemented
        pairs = zip(self.edge_arrays(), other.edge_arrays())
        return self.n == other.n and all(np.array_equal(x, y) for x, y in pairs)

    def __repr__(self) -> str:
        return f"BifilteredGraph(n={self.n}, m={self.edge_count()})"


def _blocks(reach: np.ndarray, budget: int, most: int | None = None) -> Iterator[tuple[int, int]]:
    """Row ranges [lo, hi) that cover every row in turn: each holds at most
    budget cells, or is one longer row, and, if most is given, at most most
    rows; reach[r] is the cells of the rows before row r."""
    lo, rows = 0, len(reach) - 1
    while lo < rows:
        hi = max(int(np.searchsorted(reach, reach[lo] + budget, "right")) - 1, lo + 1)
        hi = hi if most is None else min(hi, lo + most)
        yield lo, hi
        lo = hi


def _as_edges(u: np.ndarray, v: np.ndarray, s: np.ndarray, t: np.ndarray) -> Iterator[Edge]:
    """The columns' edges in turn as Edges with Python int and float fields,
    each built when it is reached; tuple.__new__ skips Edge.__new__'s frame."""
    rows = zip(u.tolist(), v.tolist(), zip(s.tolist(), t.tolist()))
    return map(tuple.__new__, repeat(Edge), rows)


def _frozen(*arrays) -> tuple[np.ndarray, ...]:
    """(u, v, s, t) as int64, int64, float and float arrays that cannot be written."""
    out = tuple(np.asarray(x, dtype=d) for x, d in zip(arrays, (np.int64, np.int64, float, float)))
    for x in out:
        x.flags.writeable = False
    return out


def graph_from_arrays(n: int, u, v, s, t) -> BifilteredGraph:
    """Build a bifiltered graph from parallel arrays, edge i being {u[i], v[i]}
    with grade (s[i], t[i]); edges in any order.

    Ids must have an integer dtype.  Rejects self-loops, ids outside
    0..n-1, non-finite grades and duplicate unordered pairs, all checked
    with numpy; the first offending edge in input order is reported.  The
    graph keeps the edges as (min, max) pairs sorted by that pair, the
    order of the sort that finds the duplicates; it keeps copies of the
    arrays, so it never shares memory that its caller can write.
    """
    return _graph_from_new_arrays(n, *(np.array(x) for x in (u, v, s, t)))


def _graph_from_new_arrays(n: int, u, v, s, t) -> BifilteredGraph:
    """graph_from_arrays for arrays that the library just made and holds no
    other writeable reference to: arrays already in the form the graph
    keeps are kept, not copied."""
    g = BifilteredGraph(n)
    u, v = np.asarray(u), np.asarray(v)
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if len(u) == 0:
        return g
    if u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got {u.dtype} and {v.dtype}")
    u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
    # Pairs with u < v that strictly increase hold no loop and no duplicate,
    # and are already in the order the graph keeps: no sort, no gathers.
    ascending = bool((u < v).all()) and bool(
        np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1])))
    )
    lo, hi = (u, v) if ascending else (np.minimum(u, v), np.maximum(u, v))
    outside = (lo < 0) | (hi >= n)
    bad = outside | ~(np.isfinite(s) & np.isfinite(t))
    if not ascending:
        order = np.lexsort((hi, lo))  # stable, so of two equal pairs the later sorts later
        lo, hi = lo[order], hi[order]
        bad[order[1:][(lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])]] = True
        bad |= u == v
    if bad.any():
        i = int(np.argmax(bad))
        a, b = u[i].item(), v[i].item()
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if outside[i]:
            raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
        if not (np.isfinite(s[i]) and np.isfinite(t[i])):
            raise ValueError(f"edge ({a}, {b}) has non-finite grade {(float(s[i]), float(t[i]))}")
        raise ValueError(f"duplicate edge pair ({min(a, b)}, {max(a, b)})")
    if not ascending:
        u, v, s, t = lo, hi, s[order], t[order]
    g._arrays = _frozen(u, v, s, t)
    return g


def graph_from_edges(n: int, edges: Iterable[Edge | tuple]) -> BifilteredGraph:
    """Build a bifiltered graph from (u, v, grade) triples, in any order.

    The triples become the parallel arrays of graph_from_arrays, which runs
    the checks.
    """
    u, v, grades = list(zip(*edges)) or ((), (), ())
    return _graph_from_new_arrays(n, u, v, *np.reshape(grades, (-1, 2)).T)


def _require_edge(adj: list[dict[int, Grade]], e: Edge) -> None:
    """Raise ValueError unless the rows adj hold e with exactly e's grade;
    an id outside 0..n-1 names no edge, though a negative one indexes a row."""
    if not 0 <= e.u < len(adj) or adj[e.u].get(e.v, NEVER) != e.grade:
        raise ValueError(f"edge ({e.u}, {e.v}) with grade {e.grade} not in graph")


def edge_neighborhood(adj: list[dict[int, Grade]], e: Edge) -> list[tuple[int, Grade]]:
    """Common neighbors w of e's endpoints in the rows adj as plain (w, entry) tuples.

    Intersects the two rows' key views; output sorted by vertex id.  entry
    is the grade at which w becomes an edge neighbor, join(crit({a,w}),
    crit({b,w}), crit(e)), and is e.grade itself when that join is crit(e).
    """
    _require_edge(adj, e)
    es, et = grade = e.grade
    ra, rb = adj[e.u], adj[e.v]
    out: list[tuple[int, Grade]] = []
    for w in sorted(ra.keys() & rb.keys()):
        (s1, t1), (s2, t2) = ra[w], rb[w]
        if s1 <= es and t1 <= et and s2 <= es and t2 <= et:
            out.append((w, grade))
        else:
            out.append((w, (max(s1, s2, es), max(t1, t2, et))))
    return out


# -- text formats ---------------------------------------------------------
#
# Edge list: header line "n m", then m lines "u v s t" (whitespace-separated,
# 0-based ids, grades as decimal floats).  Input and output of collapse runs.


def _numbers(line: str, kinds: str, refusal: str, text: str | None = None) -> list | np.ndarray:
    """The number grammar: the whitespace-separated tokens of text (the line
    itself by default), read as kinds names them, one letter per token or
    one letter for every token.  An 'i' token, a count or an id, is ASCII
    digits, read by int().  An 'f' token is ASCII float text, inf and nan
    included, with no '_' and a '+' only right after e or E, read as float()
    reads it.  kinds 'f' returns a float array, converted in one numpy call;
    other kinds return a list.  A token the grammar refuses raises
    ValueError(refusal.format(reason, line)), reason being 'an underscore'
    if text holds one, else 'a token that is not a number'."""
    text = line if text is None else text
    plus = "+" in text and "+" in text.replace("e+", "").replace("E+", "")
    if text.isascii() and "_" not in text and not plus:
        tokens = text.split()
        try:
            if kinds == "f":
                return np.array(tokens, dtype=float)
            if kinds == "i" and all(map(str.isdecimal, tokens)):
                return list(map(int, tokens))
            if len(tokens) == len(kinds) and all(
                t.isdecimal() for t, k in zip(tokens, kinds) if k == "i"
            ):
                return [int(t) if k == "i" else float(t) for t, k in zip(tokens, kinds)]
        except ValueError:
            pass
    reason = "an underscore" if "_" in text else "a token that is not a number"
    raise ValueError(refusal.format(reason, line))


def _text_lines(source: str | Path | Iterable[str]) -> Iterator[str]:
    """Each line of source, stripped, that is neither blank nor a # comment.
    A str or Path is opened here, and closed when the generator ends or is dropped.
    A data line must be ASCII: int() and float() read other scripts'
    digits, such as '٣', as numbers."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            yield from _text_lines(fh)
        return
    for raw in source:
        line = raw.strip(" \t\n\r\v\f")  # str.strip() would drop non-ASCII spaces unseen
        if line and not line.startswith("#"):
            if not line.isascii():
                raise ValueError(f"non-ASCII character in line {line!r}")
            yield line


def write_edge_list(graph: BifilteredGraph, sink: TextIO) -> None:
    u, v, s, t = (x.tolist() for x in graph.edge_arrays())
    sink.write(f"{graph.n} {len(u)}\n")
    sink.writelines(f"{a} {b} {x!r} {y!r}\n" for a, b, x, y in zip(u, v, s, t))


def read_edge_list(source: str | Path | Iterable[str]) -> BifilteredGraph:
    """Parse the edge-list text format; the header is checked before the body
    is read, and the body is parsed in one np.loadtxt call, which reads the
    same floats as float() does.  np.loadtxt also reads a leading + and an
    id written -0 (as 0), so a line holding a + or an id read as 0 or less
    goes through _numbers afterwards, as every line does when np.loadtxt
    refuses the body.  The graph keeps contiguous copies of the columns."""
    lines = _text_lines(source)
    header = next(lines, None)
    if header is None:
        raise ValueError("empty edge-list input")
    n, m = _numbers(header, "ii", "malformed header {1!r}, expected 'n m'")
    body = list(lines)
    if len(body) != m:
        raise ValueError(f"header promises {m} edges, found {len(body)}")
    if not body:
        return graph_from_arrays(n, [], [], [], [])
    columns = [("u", np.int64), ("v", np.int64), ("s", float), ("t", float)]
    malformed = "malformed edge line {1!r}, expected 'u v s t'"
    try:
        table = np.loadtxt(body, dtype=columns, comments=None, ndmin=1)
    except ValueError:
        for ln in body:  # the first line the grammar refuses, else numpy's error
            _numbers(ln, "iiff", malformed)
        raise
    u, v = table["u"], table["v"]
    nonpositive = np.flatnonzero((u <= 0) | (v <= 0)).tolist()
    for k in sorted({*nonpositive, *(k for k, ln in enumerate(body) if "+" in ln)}):
        _numbers(body[k], "iiff", malformed)
    return _graph_from_new_arrays(n, *(np.ascontiguousarray(table[c]) for c in "uvst"))

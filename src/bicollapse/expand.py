"""Triangle enumeration and scc2020 export of the dimension <= 2 clique bifiltration.

A (k+1)-clique of the graph enters the clique complex when its last edge
does, so every triangle carries the join of its three edge grades.  A
triangle is a plain (u, v, w, grade) tuple with u < v < w; GradedTriangle
names that type, as core.Grade names a grade.  The exporter emits the
standard scc2020 text layout (format tag, parameter count, block sizes for
dimensions 2, 1, 0, then one generator line per simplex with its grade and
facet indices) so the file can feed external minimal-presentation tools.
It sorts the triangles itself and checks each against the graph's edges.
count_triangles counts without listing them, with numpy in memory linear in
the edge count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .core import BifilteredGraph, Grade

FORMAT_TAG = "scc2020"


#: 3-clique (u, v, w, grade), u < v < w, graded at the join of its three edges.
GradedTriangle = tuple[int, int, int, Grade]


def enumerate_triangles(graph: BifilteredGraph) -> list[GradedTriangle]:
    """Every 3-clique exactly once, sorted by (u, v, w).

    For each vertex u, pairs its higher neighbors v < w in id order and
    looks w up in v's adjacency row, so each triangle is reported once,
    from its smallest vertex.
    """
    out: list[GradedTriangle] = []
    for u, row in enumerate(graph.adj):
        up = [(v, g) for v, g in row.items() if v > u]
        for i, (v, (s_uv, t_uv)) in enumerate(up):
            row_v = graph.adj[v]
            for w, (s_uw, t_uw) in up[i + 1 :]:
                g_vw = row_v.get(w)
                if g_vw is not None:
                    grade = (max(s_uv, s_uw, g_vw[0]), max(t_uv, t_uw, g_vw[1]))
                    out.append((u, v, w, grade))
    return out


def count_triangles(graph: BifilteredGraph) -> int:
    """Number of 3-cliques, counted in memory linear in the edge count.

    Each upper edge (u, v), u < v, extends to the wedges u < v < w over v's
    higher neighbors w, and a wedge closes a triangle iff {u, w} is an
    edge, so every triangle counts once.  The rows u go in groups: a group
    marks its upper edges in a boolean (rows x n) table of at most 2**20
    cells and gathers at most 2**18 wedges, unless one row alone holds
    more, and counts the wedges that land on a mark.
    """
    n = graph.n
    u, v = graph.half_edges()
    a, b = u[v > u], v[v > u]  # upper edges, sorted by (a, b)
    deg = np.bincount(a, minlength=n)
    start = np.cumsum(deg) - deg
    fan = deg[b]  # wedges through each upper edge
    cumfan = np.concatenate(([0], np.cumsum(fan)))
    bounds = np.append(start, len(a))  # row r's upper edges: bounds[r]:bounds[r + 1]
    reach = cumfan[bounds]  # wedges before row r
    rows = max(1, (1 << 20) // max(n, 1))
    total = lo = 0
    while lo < n:
        hi = int(np.searchsorted(reach, reach[lo] + (1 << 18), side="right")) - 1
        hi = min(max(hi, lo + 1), lo + rows)
        p, q = bounds[lo], bounds[hi]
        cell = (a[p:q] - lo) * n
        mark = np.zeros((hi - lo) * n, dtype=bool)
        mark[cell + b[p:q]] = True
        k = fan[p:q]
        ends = np.cumsum(k)
        w = b[np.arange(cumfan[q] - cumfan[p]) + np.repeat(start[b[p:q]] - ends + k, k)]
        total += np.count_nonzero(mark[np.repeat(cell, k) + w])
        lo = hi
    return int(total)


def _fmt(x: float) -> str:
    # Shortest round-trip decimal; integral values lose the trailing ".0".
    x = x + 0.0
    if x == int(x):
        return str(int(x))
    return repr(x)


class _Formatted(dict):
    """_fmt(x - shift) by coordinate x, formatted once per distinct x.

    0.0 and -0.0 share a key, which is safe: their shifted values are
    equal or differ only in the sign of zero, which _fmt drops.
    """

    def __init__(self, shift: float):
        super().__init__()
        self.shift = shift

    def __missing__(self, x: float) -> str:
        text = self[x] = _fmt(x - self.shift)
        return text


def export_scc2020(
    graph: BifilteredGraph,
    triangles: Sequence[GradedTriangle],
    sink: str | Path | IO[str],
) -> None:
    """Write the dimension 0..2 clique bifiltration in scc2020 text form.

    Grades are shifted so the coordinate-wise minimum over edge grades
    lands at (0, 0); vertices sit at that global minimum.  Edges are
    sorted by (u, v) and triangles by (u, v, w, grade), so output is
    byte-stable for a fixed input.  A triangle whose facet edge is absent
    from the graph is rejected; facets are looked up as (u, v), (u, w) and
    (v, w) with the edges' u < v, so this also rejects any triangle whose
    vertices do not increase.  A triangle's coordinates are edge
    coordinates, so each distinct coordinate is formatted once.
    """
    edges = graph.edge_list()
    for e in edges:
        if not (math.isfinite(e.grade[0]) and math.isfinite(e.grade[1])):
            raise ValueError(f"edge {(e.u, e.v)} has a non-finite grade")
    shift_s = min((e.grade[0] for e in edges), default=0.0)
    shift_t = min((e.grade[1] for e in edges), default=0.0)
    edge_index = {(e.u, e.v): i for i, e in enumerate(edges)}
    fmt_s, fmt_t = _Formatted(shift_s), _Formatted(shift_t)

    lines = [FORMAT_TAG, "2", f"{len(triangles)} {len(edges)} {graph.n}"]
    for u, v, w, (s, t) in sorted(triangles):
        try:
            facets = f"{edge_index[u, v]} {edge_index[u, w]} {edge_index[v, w]}"
        except KeyError as missing:
            pair = missing.args[0]
            raise ValueError(f"triangle {(u, v, w)} references missing edge {pair}") from None
        lines.append(f"{fmt_s[s]} {fmt_t[t]} ; {facets}")
    for u, v, (s, t) in edges:
        lines.append(f"{fmt_s[s]} {fmt_t[t]} ; {u} {v}")
    lines.extend("0 0 ;" for _ in range(graph.n))
    text = "\n".join(lines) + "\n"

    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text)
    else:
        sink.write(text)


@dataclass(frozen=True)
class SccComplex:
    """Parsed scc2020 content: per-block (grade, facet indices) generators.

    blocks[0] holds dimension-2 generators, blocks[1] edges, blocks[2]
    vertices; facet indices point into the next block.
    """

    blocks: tuple[tuple[tuple[Grade, tuple[int, ...]], ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def parse_scc2020(source: str | Path | IO[str]) -> SccComplex:
    """Round-trip reader for files produced by export_scc2020."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows or rows[0] != FORMAT_TAG:
        raise ValueError(f"missing {FORMAT_TAG} format tag")
    if len(rows) < 3 or rows[1] != "2":
        raise ValueError("expected 2 filtration parameters")
    sizes = [int(tok) for tok in rows[2].split()]
    if len(sizes) != 3 or any(k < 0 for k in sizes):
        raise ValueError(f"expected three block sizes, got {rows[2]!r}")
    body = rows[3:]
    if len(body) != sum(sizes):
        raise ValueError(f"expected {sum(sizes)} generator lines, got {len(body)}")

    blocks: list[tuple[tuple[Grade, tuple[int, ...]], ...]] = []
    pos = 0
    for dim_index, size in enumerate(sizes):
        gens = []
        next_size = sizes[dim_index + 1] if dim_index + 1 < len(sizes) else 0
        for ln in body[pos : pos + size]:
            head, sep, tail = ln.partition(";")
            if not sep:
                raise ValueError(f"generator line lacks ';': {ln!r}")
            coords = [float(tok) for tok in head.split()]
            if len(coords) != 2:
                raise ValueError(f"expected two grade coordinates: {ln!r}")
            faces = tuple(int(tok) for tok in tail.split())
            if any(f < 0 or f >= next_size for f in faces):
                raise ValueError(f"facet index out of range: {ln!r}")
            gens.append(((coords[0], coords[1]), faces))
        blocks.append(tuple(gens))
        pos += size
    return SccComplex(blocks=tuple(blocks))

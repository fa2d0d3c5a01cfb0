"""Triangle enumeration and scc2020 export of the dimension <= 2 clique bifiltration.

A (k+1)-clique of the graph enters the clique complex when its last edge
does, so every triangle carries the join of its three edge grades.  One
wedge walk over graph.edge_arrays(), the edges (u, v) with u < v, is the
only place that finds triangles: it yields the triangles of each group of
at most _WEDGES wedges as the compact indices of their three edges.
count_triangles counts them, enumerate_triangles fills one numpy record
array of dtype GradedTriangle, fields u < v < w and the join (s, t), and
export_scc2020 writes each triangle line from the indices.  The exporter
emits the standard scc2020 text layout (format tag, parameter count, block
sizes for dimensions 2, 1, 0, then one generator line per simplex with its
grade and facet indices) so the file can feed external minimal-presentation
tools.  It takes the triangles only as enumerate_triangles returns them,
and runs every check before it writes a byte.  Each stage holds its input,
the triangle array, at most the walk's indices and one bounded slice.
parse_scc2020 reads the layout back, through core._text_lines and
core._numbers, and refuses what the exporter never writes.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .core import BifilteredGraph, Grade, _blocks, _numbers, _text_lines

FORMAT_TAG = "scc2020"

#: Lines per write, and triangles per check, in export_scc2020.
_CHUNK_LINES = 1 << 12
#: Wedges per group of the wedge walk, unless one row alone has more.
_WEDGES = 1 << 14


#: Record of a 3-clique u < v < w, graded at (s, t), the join of its three
#: edges; enumerate_triangles returns an array of these.
GradedTriangle = np.dtype(
    [("u", np.int64), ("v", np.int64), ("w", np.int64), ("s", float), ("t", float)]
)


def _closed_wedges(n: int, a: np.ndarray, b: np.ndarray) -> Iterator[np.ndarray]:
    """Every triangle u < v < w once, as the indices uv, uw, vw of its three
    edges among the upper edges (a, b), which are sorted by (a, b): a
    (3, L) array a group, in the smallest integer type that holds them.

    Each upper edge (u, v) extends to the wedges u < v < w over v's higher
    neighbors w, and a wedge closes a triangle iff {u, w} is an edge.  The
    rows u go in groups: a group marks its upper edges, 1 + the edge's
    index, in the walk's one (rows x n) table of at most 2**18 cells,
    gathers at most _WEDGES wedges, unless one row alone is longer, keeps
    the wedges that land on a mark and clears the cells it marked.  Wedges
    are walked in (u, v, w) order.
    """
    deg = np.bincount(a, minlength=n)
    start = np.cumsum(deg) - deg
    fan = deg[b]  # wedges through each upper edge
    cumfan = np.concatenate(([0], np.cumsum(fan)))
    bounds = np.append(start, len(a))  # row r's upper edges: bounds[r]:bounds[r + 1]
    reach = cumfan[bounds]  # wedges before row r
    rows = min(max(1, (1 << 18) // max(n, 1)), n)
    mark = np.zeros(rows * n, dtype=np.min_scalar_type(len(a)))  # holds the largest mark, len(a)
    index_type = np.min_scalar_type(len(a) - 1)
    for lo, hi in _blocks(reach, _WEDGES, rows):
        p, q = bounds[lo], bounds[hi]
        row = (a[p:q] - lo) * n
        cell = row + b[p:q]
        mark[cell] = np.arange(p + 1, q + 1)
        k = fan[p:q]
        ends = np.cumsum(k)
        vw = np.arange(cumfan[q] - cumfan[p]) + np.repeat(start[b[p:q]] - ends + k, k)
        uw = mark[np.repeat(row, k) + b[vw]]
        mark[cell] = 0
        closed = np.flatnonzero(uw)
        uv = np.repeat(np.arange(p, q), k)
        yield np.array((uv[closed], uw[closed] - 1, vw[closed]), dtype=index_type)


def _fill(out: np.ndarray, facets: np.ndarray, edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """out, a GradedTriangle array, filled with the triangles whose edge
    indices uv, uw, vw among edges, the graph's edge_arrays(), are the
    columns of facets."""
    a, b, s, t = edges
    uv, uw, vw = facets.astype(np.intp)
    out["u"], out["v"], out["w"] = a[uv], b[uv], b[uw]
    out["s"] = np.maximum(np.maximum(s[uv], s[uw]), s[vw])
    out["t"] = np.maximum(np.maximum(t[uv], t[uw]), t[vw])
    return out


def enumerate_triangles(graph: BifilteredGraph) -> np.ndarray:
    """Every 3-clique exactly once, sorted by (u, v, w), as a GradedTriangle
    array whose grade is the coordinate-wise max of its three edges'."""
    edges = graph.edge_arrays()
    groups = list(_closed_wedges(graph.n, *edges[:2]))
    out = np.empty(sum(g.shape[1] for g in groups), dtype=GradedTriangle)
    lo = 0
    for g in groups:
        lo += len(_fill(out[lo : lo + g.shape[1]], g, edges))
    return out


def count_triangles(graph: BifilteredGraph) -> int:
    """Number of 3-cliques, counted in memory linear in the edge count."""
    a, b, _, _ = graph.edge_arrays()
    return sum(g.shape[1] for g in _closed_wedges(graph.n, a, b))


def _fmt(x: float) -> str:
    # Shortest round-trip decimal; integral values lose the trailing ".0".
    x = x + 0.0
    if x == int(x):
        return str(int(x))
    return repr(x)


def _formatted(values: np.ndarray, shift: float, name: str) -> np.ndarray:
    """_fmt(c - shift) for each coordinate c of values, finite, sorted and
    none below the shift, as an object array; ValueError names the least c
    whose shifted value overflows."""
    with np.errstate(over="ignore"):
        shifted = values - shift
    bad = values[np.isinf(shifted)]
    if len(bad):
        raise ValueError(
            f"grade coordinate {name} = {bad[0].item()!r} minus the shift {shift!r} is not finite"
        )
    return np.array([_fmt(c) for c in shifted.tolist()], dtype=object)


_NOT_ENUMERATED = "triangles must be enumerate_triangles(graph), a GradedTriangle array"


def export_scc2020(
    graph: BifilteredGraph, triangles: np.ndarray, sink: str | Path | IO[str]
) -> None:
    """Write the dimension 0..2 clique bifiltration in scc2020 text form.

    triangles must equal enumerate_triangles(graph), and any other array
    raises one ValueError: the export walks the wedges itself, compares the
    array with the records it fills, _CHUNK_LINES rows at a time, and writes
    each triangle line from the walk's edge indices.  Grades are shifted so
    the coordinate-wise minimum over edge grades lands at (0, 0); vertices
    sit at that global minimum.  Edges come in (u, v) order and triangles
    in (u, v, w) order, so output is byte-stable for a fixed input.  Each
    distinct edge coordinate is formatted once, and a triangle's is its
    facets' largest; one that overflows after the shift is rejected by
    name.  Every check runs before the first byte is written, and a path
    sink is opened only after them.  The export holds the triangle array,
    the walk's indices and one slice of _CHUNK_LINES lines, never the text.
    """
    edges = a, b, es, et = graph.edge_arrays()
    n, m = graph.n, len(a)
    spans = [
        g[:, lo : lo + _CHUNK_LINES]
        for g in _closed_wedges(n, a, b)
        for lo in range(0, g.shape[1], _CHUNK_LINES)
    ]
    k = sum(f.shape[1] for f in spans)
    is_array = isinstance(triangles, np.ndarray) and triangles.dtype == GradedTriangle
    if not (is_array and triangles.shape == (k,)):
        raise ValueError(_NOT_ENUMERATED)
    lo = 0
    for f in spans:
        filled = _fill(np.empty(f.shape[1], dtype=GradedTriangle), f, edges)
        if not (filled == triangles[lo : lo + len(filled)]).all():
            raise ValueError(_NOT_ENUMERATED)
        lo += len(filled)
    axes = []  # per axis: the edge coordinates' texts and each edge's rank among them
    for x, name in zip((es, et), "st"):
        values, rank = np.unique(x, return_inverse=True)
        axes.append((_formatted(values, x.min().item() if m else 0.0, name), rank))
    names = np.array([str(i) for i in range(m)], dtype=object)

    def slices() -> Iterator[str]:
        yield f"{FORMAT_TAG}\n2\n{k} {m} {n}\n"
        for f in spans:
            s, t = (text[rank[f].max(0)].tolist() for text, rank in axes)
            lines = zip(s, t, *names[f].tolist())
            yield "".join([f"{s} {t} ; {uv} {uw} {vw}\n" for s, t, uv, uw, vw in lines])
        for lo in range(0, m, _CHUNK_LINES):
            hi = min(lo + _CHUNK_LINES, m)
            s, t = (text[rank[lo:hi]].tolist() for text, rank in axes)
            lines = zip(s, t, a[lo:hi].tolist(), b[lo:hi].tolist())
            yield "".join([f"{s} {t} ; {u} {v}\n" for s, t, u, v in lines])
        for lo in range(0, n, _CHUNK_LINES):
            yield "0 0 ;\n" * (min(lo + _CHUNK_LINES, n) - lo)

    is_path = isinstance(sink, (str, Path))
    with open(sink, "w") if is_path else contextlib.nullcontext(sink) as out:
        for text in slices():
            out.write(text)


@dataclass(frozen=True)
class SccComplex:
    """Parsed scc2020 content: per-block (grade, facet indices) generators.

    blocks[0] holds dimension-2 generators, blocks[1] edges, blocks[2]
    vertices; facet indices point into the next block.
    """

    blocks: tuple[tuple[tuple[Grade, tuple[int, ...]], ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def _block(lines: list[str], next_size: int) -> tuple:
    """The generators of lines.  If every line holds two finite grade
    coordinates, one ';' and as many facet indices in range, the block is
    read in two _numbers calls; else line by line, and ValueError quotes the
    first line that export_scc2020 never writes."""
    heads, tails = ([ln.partition(";")[i] for ln in lines] for i in (0, 2))
    with contextlib.suppress(ValueError, OverflowError):  # any refusal, a second ";" too
        grades = _numbers("", "f", "", " ".join(heads)).tolist()
        faces = np.array(_numbers("", "i", "", " ".join(tails)), dtype=np.int64)
        widths = [{*map(len, map(str.split, part))} for part in (heads, tails)]
        if widths[0] == {2} and len(widths[1]) == 1 and "".join(lines).count(";") == len(lines):
            if all(map(math.isfinite, grades)) and (faces < next_size).all():
                coords, indices = iter(grades), iter(faces.tolist())
                facets = list(zip(*[indices] * widths[1].pop())) or [()] * len(lines)
                return tuple(zip(list(zip(coords, coords)), facets))
    gens = []
    for ln in lines:
        head, sep, tail = ln.partition(";")
        if not sep:
            raise ValueError(f"generator line lacks ';': {ln!r}")
        coords = _numbers(ln, "f", "grade holds {}: {!r}", head).tolist()
        if len(coords) != 2:
            raise ValueError(f"expected two grade coordinates: {ln!r}")
        if not all(map(math.isfinite, coords)):
            raise ValueError(f"grade is not finite: {ln!r}")
        faces = tuple(_numbers(ln, "i", "facet index is not a plain decimal: {1!r}", tail))
        if any(f >= next_size for f in faces):
            raise ValueError(f"facet index out of range: {ln!r}")
        gens.append(((coords[0], coords[1]), faces))
    return tuple(gens)


def parse_scc2020(source: str | Path | IO[str]) -> SccComplex:
    """Round-trip reader for files produced by export_scc2020.  Refuses what
    the exporter never writes: block sizes, facet indices and grades outside
    the number grammar (core._numbers), and grades that are not finite."""
    rows = list(_text_lines(source))
    if not rows or rows[0] != FORMAT_TAG:
        raise ValueError(f"missing {FORMAT_TAG} format tag")
    if len(rows) < 2 or rows[1] != "2":
        raise ValueError("expected 2 filtration parameters")
    if len(rows) < 3:
        raise ValueError("missing the block-size line")
    sizes = _numbers(rows[2], "iii", "expected three block sizes, got {1!r}")
    body = rows[3:]
    if len(body) != sum(sizes):
        raise ValueError(f"expected {sum(sizes)} generator lines, got {len(body)}")

    ends = (0, *np.cumsum(sizes).tolist())
    blocks = (_block(body[ends[i] : ends[i + 1]], (*sizes, 0)[i + 1]) for i in range(3))
    return SccComplex(blocks=tuple(blocks))

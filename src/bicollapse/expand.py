"""Triangle enumeration and scc2020 export of the dimension <= 2 clique bifiltration.

A (k+1)-clique of the graph enters the clique complex when its last edge
does, so every triangle carries the join of its three edge grades.  The
triangle stage is array-native: one wedge walk over graph.edge_arrays(),
the edges (u, v) with u < v, finds each triangle as the indices of its
three edges, in groups of at most _WEDGES wedges, so count_triangles counts
without listing and enumerate_triangles keeps compact indices and fills one
numpy record array of dtype GradedTriangle, fields u < v < w and the join
(s, t).  The exporter emits the standard scc2020 text layout (format tag,
parameter count, block sizes for dimensions 2, 1, 0, then one generator
line per simplex with its grade and facet indices) so the file can feed
external minimal-presentation tools.  It takes the triangles as
enumerate_triangles returns them and runs every check (the array's order,
the facet lookup, the finiteness of each shifted grade) before it writes a
byte.  Each stage holds its input, the triangle array, at most a compact
copy of its indices and one bounded slice.
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

from .core import BifilteredGraph, Grade, _numbers, _text_lines

FORMAT_TAG = "scc2020"

#: Lines per write, and triangles per check, in export_scc2020.
_CHUNK_LINES = 1 << 12
#: Wedges per group of the wedge walk, unless one row alone has more.
_WEDGES = 1 << 16


#: Record of a 3-clique u < v < w, graded at (s, t), the join of its three
#: edges; enumerate_triangles returns an array of these.
GradedTriangle = np.dtype(
    [("u", np.int64), ("v", np.int64), ("w", np.int64), ("s", float), ("t", float)]
)


def _closed_wedges(n: int, a: np.ndarray, b: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Every triangle u < v < w once, as the indices uv, uw, vw of its three
    edges among the upper edges (a, b), which are sorted by (a, b).

    Each upper edge (u, v) extends to the wedges u < v < w over v's higher
    neighbors w, and a wedge closes a triangle iff {u, w} is an edge.  The
    rows u go in groups: a group marks its upper edges in a (rows x n)
    table of at most 2**18 cells, holding 1 + the edge's index, gathers at
    most _WEDGES wedges, unless one row alone is longer, and yields the
    wedges that land on a mark.  Wedges are walked in (u, v, w) order.
    """
    deg = np.bincount(a, minlength=n)
    start = np.cumsum(deg) - deg
    fan = deg[b]  # wedges through each upper edge
    cumfan = np.concatenate(([0], np.cumsum(fan)))
    bounds = np.append(start, len(a))  # row r's upper edges: bounds[r]:bounds[r + 1]
    reach = cumfan[bounds]  # wedges before row r
    rows = max(1, (1 << 18) // max(n, 1))
    mark_type = np.min_scalar_type(len(a))  # holds the largest mark, len(a)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(reach, reach[lo] + _WEDGES, side="right")) - 1
        hi = min(max(hi, lo + 1), lo + rows)
        p, q = bounds[lo], bounds[hi]
        cell = (a[p:q] - lo) * n
        mark = np.zeros((hi - lo) * n, dtype=mark_type)
        mark[cell + b[p:q]] = np.arange(p + 1, q + 1)
        k = fan[p:q]
        ends = np.cumsum(k)
        vw = np.arange(cumfan[q] - cumfan[p]) + np.repeat(start[b[p:q]] - ends + k, k)
        uw = mark[np.repeat(cell, k) + b[vw]]
        closed = np.flatnonzero(uw)
        uv = np.repeat(np.arange(p, q), k)
        yield uv[closed], uw[closed] - 1, vw[closed]
        lo = hi


def enumerate_triangles(graph: BifilteredGraph) -> np.ndarray:
    """Every 3-clique exactly once, sorted by (u, v, w), as a GradedTriangle
    array whose grade is the coordinate-wise max of its three edges'."""
    a, b, s, t = graph.edge_arrays()
    groups = [np.array(g, np.min_scalar_type(len(a) - 1)) for g in _closed_wedges(graph.n, a, b)]
    out = np.empty(sum(g.shape[1] for g in groups), dtype=GradedTriangle)
    lo = 0
    for g in groups:
        uv, uw, vw = g.astype(np.intp)
        part, lo = out[lo : lo + len(uv)], lo + len(uv)
        part["u"], part["v"], part["w"] = a[uv], b[uv], b[uw]
        part["s"] = np.maximum(np.maximum(s[uv], s[uw]), s[vw])
        part["t"] = np.maximum(np.maximum(t[uv], t[uw]), t[vw])
    return out


def count_triangles(graph: BifilteredGraph) -> int:
    """Number of 3-cliques, counted in memory linear in the edge count."""
    a, b, _, _ = graph.edge_arrays()
    return sum(len(uv) for uv, _, _ in _closed_wedges(graph.n, a, b))


def _fmt(x: float) -> str:
    # Shortest round-trip decimal; integral values lose the trailing ".0".
    x = x + 0.0
    if x == int(x):
        return str(int(x))
    return repr(x)


def _formatted(values: np.ndarray, shift: float, name: str) -> np.ndarray:
    """_fmt(c - shift) for each coordinate c of values, as an object array;
    ValueError names the least c (nan last) whose shifted value is not
    finite, which a grade's overflow or a non-finite grade gives."""
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = values - shift
    bad = values[~np.isfinite(shifted)]
    if len(bad):
        c = np.sort(bad)[0].item()
        raise ValueError(
            f"grade coordinate {name} = {c!r} minus the shift {shift!r} is not finite"
        )
    return np.array([_fmt(c) for c in shifted.tolist()], dtype=object)


def _require_enumerated(tri: np.ndarray) -> None:
    """Raise ValueError unless tri is a GradedTriangle array as enumerate_triangles
    returns it: u < v < w in every row, the rows strictly increasing in (u, v, w)."""
    if not (isinstance(tri, np.ndarray) and tri.dtype == GradedTriangle and tri.ndim == 1):
        raise ValueError("triangles must be a GradedTriangle array, as enumerate_triangles returns")
    for lo in range(0, len(tri), _CHUNK_LINES):
        part = tri[max(lo - 1, 0) : lo + _CHUNK_LINES]  # and the row before the slice
        u, v, w = part["u"], part["v"], part["w"]
        du, dv, dw = np.diff(u), np.diff(v), np.diff(w)
        steps = (du > 0) | ((du == 0) & ((dv > 0) | ((dv == 0) & (dw > 0))))
        if not (((u < v) & (v < w)).all() and steps.all()):
            raise ValueError("triangles must have u < v < w and strictly increase in (u, v, w)")


def _facets(n: int, a: np.ndarray, b: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """The indices among the edges (a, b) of each triangle's facets uv, uw,
    vw, as a compact (3, k) array filled _CHUNK_LINES triangles at a time;
    ValueError names the first triangle with a facet that is not an edge."""
    # An edge's key is a * n + b; a facet that cannot be an edge gets n * n,
    # which sits above every edge key and is appended to them, so every
    # searchsorted position can be read.
    keys = np.append(a * n + b, n * n)
    facets = np.empty((3, len(tri)), dtype=np.min_scalar_type(len(a) - 1))
    for lo in range(0, len(tri), _CHUNK_LINES):
        part = tri[lo : lo + _CHUNK_LINES]
        x = np.stack((part["u"], part["u"], part["v"]))
        y = np.stack((part["v"], part["w"], part["w"]))
        valid = (0 <= x) & (y < n)
        key = np.where(valid, x * n + y, n * n)
        found = facets[:, lo : lo + len(part)] = np.searchsorted(keys, key)
        hit = valid & (keys[found] == key)
        if not hit.all():
            i = int(np.argmin(hit.all(axis=0)))
            j = int(np.argmin(hit[:, i]))
            corner = (int(x[0, i]), int(y[0, i]), int(y[2, i]))
            raise ValueError(
                f"triangle {corner} references missing edge {(int(x[j, i]), int(y[j, i]))}"
            )
    return facets


def export_scc2020(
    graph: BifilteredGraph, triangles: np.ndarray, sink: str | Path | IO[str]
) -> None:
    """Write the dimension 0..2 clique bifiltration in scc2020 text form.

    triangles is a GradedTriangle array as enumerate_triangles returns it,
    anything else is rejected (_require_enumerated).  Grades are shifted so
    the coordinate-wise minimum over edge grades lands at (0, 0); vertices
    sit at that global minimum.  Edges come in (u, v) order and triangles
    in the order given, so output is byte-stable for a fixed input.  A
    triangle whose facet edge is absent from the graph is rejected, the
    first in order.  Each distinct edge coordinate is formatted once, and
    a triangle's is its facets' largest (an edited array's others too); one
    not finite after the shift (it overflowed, or a triangle's grade is not
    finite) is rejected by name.  Every check runs before the first byte is
    written, and a path sink is opened only after them.  Checks and text go
    _CHUNK_LINES triangles or lines at a time: the export holds the triangle
    array, its facets in a compact array and one slice, never the text.
    """
    _require_enumerated(triangles)
    n, k = graph.n, len(triangles)
    a, b, es, et = graph.edge_arrays()
    m = len(a)
    facets = _facets(n, a, b, triangles)
    spans = [(lo, min(lo + _CHUNK_LINES, k)) for lo in range(0, k, _CHUNK_LINES)]
    axes = []  # per axis: the values' table, their texts, each edge's rank, edited
    for x, name in zip((es, et), "st"):
        values, rank = np.unique(x, return_inverse=True)
        c = triangles[name]  # -0.0 may take the text of an edge's 0.0: _fmt drops the sign
        odd = [c[lo:hi][c[lo:hi] != x[facets[:, lo:hi]].max(0)] for lo, hi in spans]
        edited = any(map(len, odd))
        if edited:  # the coordinates off the edge table join it
            values, rank = np.unique(np.concatenate((x, *odd)), return_inverse=True)
        shift = x.min().item() if m else 0.0
        axes.append((values, _formatted(values, shift, name), rank[:m], edited))
    names = np.array([str(i) for i in range(m)], dtype=object)

    def slices() -> Iterator[str]:
        yield f"{FORMAT_TAG}\n2\n{k} {m} {n}\n"
        for lo, hi in spans:
            f = facets[:, lo:hi]
            s, t = (
                text[np.searchsorted(v, triangles[name][lo:hi]) if edited else rank[f].max(0)]
                for (v, text, rank, edited), name in zip(axes, "st")
            )
            lines = zip(s.tolist(), t.tolist(), *names[f].tolist())
            yield "".join([f"{s} {t} ; {uv} {uw} {vw}\n" for s, t, uv, uw, vw in lines])
        for lo in range(0, m, _CHUNK_LINES):
            hi = min(lo + _CHUNK_LINES, m)
            s, t = (text[rank[lo:hi]].tolist() for _, text, rank, _ in axes)
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

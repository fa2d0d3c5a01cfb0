"""Point-cloud ingestion, KDE densities, and density-Rips graph construction.

A point cloud becomes a complete bifiltered graph: the first coordinate of an
edge grade is the negated smaller density of its endpoints (so denser points
enter earlier under the standard coordinate-wise order), the second is the
Euclidean distance.  Densities default to an unnormalized Gaussian kernel sum
whose bandwidth is the nearest-rank 20th percentile of the distinct pairwise
distances; any strictly monotone rescaling of densities yields the same graph
up to axis relabeling, so the normalization constant is omitted.
Distances have one form, the condensed distances: the strict upper triangle
of the distance matrix, row by row, n(n-1)/2 values for n points.  Every
function here that takes or returns distances takes or returns that vector.
pairwise_distances computes it in scipy's summation order, bit-identical to
scipy.spatial.distance.pdist; load_lower_distance_matrix scatters a file's
values into it.  The KDE reads nothing else, and the graph takes it as its
distance column as it is.  Every stage walks the strict upper triangle, or
the KDE the rows of the symmetric matrix gathered from it, in blocks of
whole rows of at most _BLOCK cells (core._blocks), so no stage holds an
index pair or a temporary as long as the triangle: each element sees the
same operations in the same order as one numpy expression over the whole,
and each KDE row is summed over one contiguous length-n row.  load_points
and load_lower_distance_matrix read a path or a text stream through
core._text_lines and convert one row at a time through core._numbers.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .core import BifilteredGraph, _blocks, _graph_from_new_arrays, _numbers, _text_lines

DATASET_KINDS = ("sphere", "uniform", "circle", "torus", "swiss-roll")


# -- distances and densities ---------------------------------------------------

#: Cells one block of the build holds at once: pairs of the strict upper
#: triangle, or matrix entries for the KDE's full rows.
_BLOCK = 1 << 16


def _upper_blocks(n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The pairs (i, j), i < j < n, in condensed order, as (start, i, j):
    whole rows of at most _BLOCK pairs, start being the first pair's
    condensed position."""
    r = np.arange(n)
    reach = r * (2 * n - r - 1) // 2  # condensed position of row r's first pair
    for lo, hi in _blocks(reach, _BLOCK):
        i = np.repeat(r[lo:hi], np.diff(reach[lo : hi + 1]))
        yield int(reach[lo]), i, np.arange(reach[lo], reach[hi]) - reach[i] + i + 1


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Condensed Euclidean distances over unordered pairs, in (i < j) order.

    Squared coordinate differences are summed one coordinate at a time
    before the square root, the order scipy's pdist uses, so the values are
    bit-identical to it.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) < 2:
        raise ValueError("need at least 2 points of uniform dimension")
    n = len(points)
    out = np.empty(n * (n - 1) // 2)
    for start, i, j in _upper_blocks(n):
        total = np.zeros(len(i))
        for column in points.T:
            diff = column[i] - column[j]
            total += diff * diff
        out[start : start + len(i)] = np.sqrt(total)
    return out


def kde_bandwidth(distances: np.ndarray) -> float:
    """Nearest-rank 20th percentile of the distinct positive distance values."""
    distinct = np.unique(np.asarray(distances, dtype=float))
    distinct = distinct[distinct > 0.0]
    if distinct.size == 0:
        raise ValueError("degenerate cloud: all pairwise distances are zero")
    return float(distinct[math.ceil(0.2 * distinct.size) - 1])


def kde_density_from_distances(condensed: np.ndarray, h: float) -> np.ndarray:
    """Unnormalized Gaussian kernel sums of n points from their condensed
    distances, of which there must be n(n-1)/2 in a 1-D array; an empty
    array is one point.  Row sums include the self term exp(0) = 1, so values
    are >= 1.

    Blocks of whole rows of the symmetric matrix with zero diagonal are
    gathered from condensed, and each row is summed over its contiguous
    length-n row, so the sums equal one sum over that whole matrix, bit for
    bit.
    """
    condensed = np.asarray(condensed, dtype=float)
    n = (1 + math.isqrt(1 + 8 * condensed.size)) // 2
    if condensed.shape != (n * (n - 1) // 2,):
        raise ValueError(f"distances of shape {condensed.shape} are not n(n-1)/2 for any n")
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    if n < 2:
        return np.ones(n)  # no pair: the self term alone
    out, c = np.empty(n), np.arange(n)
    for lo, hi in _blocks(np.arange(n + 1) * n, _BLOCK):
        r = np.arange(lo, hi)[:, None]
        a, b = np.minimum(r, c), np.maximum(r, c)
        rows = condensed[a * (2 * n - a - 1) // 2 + b - a - 1]  # a == b reads a stand-in
        rows[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        out[lo:hi] = np.exp(-(rows**2) / (2.0 * h * h)).sum(axis=1)
    return out


def kde_density(points: np.ndarray, h: float) -> np.ndarray:
    """Per-point unnormalized Gaussian KDE values, read from the condensed
    distances: no n x n matrix is built."""
    points = np.asarray(points, dtype=float)
    condensed = pairwise_distances(points) if len(points) != 1 else np.empty(0)
    return kde_density_from_distances(condensed, h)


# -- density-Rips construction --------------------------------------------------


def density_rips_from_distances(
    condensed: np.ndarray, densities: np.ndarray
) -> BifilteredGraph:
    """Complete graph graded by (-min endpoint density, distance) from the
    condensed distances of len(densities) points; any other length, or an
    array that is not 1-D, is refused.  The condensed distances become the
    graph's distance column: a float64 array that owns its memory is kept,
    not copied, and made read-only, so pass a copy of one you will write."""
    densities = np.asarray(densities, dtype=float)
    n, t = len(densities), np.asarray(condensed, dtype=float)
    m = n * (n - 1) // 2
    if t.shape != (m,):
        raise ValueError(f"distances of shape {t.shape} do not match {n} densities")
    if not t.flags.owndata:
        t = t.copy()
    neg = -densities
    u, v, s = np.empty(m, np.int64), np.empty(m, np.int64), np.empty(m)
    for start, i, j in _upper_blocks(n):
        block = slice(start, start + len(i))
        u[block], v[block], s[block] = i, j, np.maximum(neg[i], neg[j])
    return _graph_from_new_arrays(n, u, v, s, t)


def density_rips_graph(points: np.ndarray, densities: np.ndarray) -> BifilteredGraph:
    """Density-Rips bifiltered complete graph of a point cloud, built from
    the condensed distances: no n x n matrix is built."""
    points = np.asarray(points, dtype=float)
    densities = np.asarray(densities, dtype=float)
    if len(points) != len(densities):
        raise ValueError("densities length does not match point count")
    return density_rips_from_distances(pairwise_distances(points), densities)


# -- synthetic datasets ----------------------------------------------------------


def generate_dataset(
    kind: str, n: int, seed: int, *, noise: float = 0.0, outliers: float = 0.1
) -> np.ndarray:
    """Seeded synthetic point clouds.

    sphere: unit 2-sphere in R^3 with an `outliers` fraction drawn
    uniformly from [-2, 2]^3 and appended after the sphere points.
    uniform: [0, 1]^2.  circle: unit circle, optional gaussian `noise`.
    torus: surface with radii R=1, r=0.5, angle-uniform.  swiss-roll:
    (t cos t, y, t sin t) with t in [1.5pi, 4.5pi] and y in [0, 21].
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, (n, 2))
    if kind == "circle":
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        if noise > 0:
            pts += rng.normal(0.0, noise, pts.shape)
        return pts
    if kind == "sphere":
        k = int(round(outliers * n))
        gauss = rng.normal(size=(n - k, 3))
        gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
        return np.vstack([gauss, rng.uniform(-2.0, 2.0, (k, 3))])
    if kind == "torus":
        big, small = 1.0, 0.5
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        phi = rng.uniform(0.0, 2.0 * math.pi, n)
        ring = big + small * np.cos(phi)
        return np.column_stack(
            [ring * np.cos(theta), ring * np.sin(theta), small * np.sin(phi)]
        )
    if kind == "swiss-roll":
        t = rng.uniform(1.5 * math.pi, 4.5 * math.pi, n)
        y = rng.uniform(0.0, 21.0, n)
        return np.column_stack([t * np.cos(t), y, t * np.sin(t)])
    raise ValueError(f"unknown dataset kind {kind!r}, expected one of {DATASET_KINDS}")


# -- text inputs -------------------------------------------------------------------


def load_points(source: str | Path | IO[str]) -> np.ndarray:
    """Point cloud from text: one point per line, 2 or 3 columns, CSV or
    whitespace separated; blank lines and # comments skipped."""
    rows = [_numbers(ln, "f", "point line holds {}: {!r}", ln.replace(",", " "))
            for ln in _text_lines(source)]
    if not rows:
        raise ValueError("empty point file")
    dims = {len(r) for r in rows}
    if len(dims) != 1 or dims.pop() not in (2, 3):
        raise ValueError("points must share one dimension, 2 or 3")
    pts = np.array(rows, dtype=float)
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


def load_lower_distance_matrix(source: str | Path | IO[str]) -> np.ndarray:
    """Condensed distances from a strictly-lower-triangular text file.

    Line i carries the i finite, non-negative distances to earlier points;
    a leading empty row (zero entries for the first point) may be omitted.
    Line j holds the pairs (i, j), i < j: column j of the strict upper
    triangle, so each value is scattered to its condensed position and no
    matrix is built.
    """
    rows = [_numbers(ln, "f", "distance line holds {}: {!r}", ln.replace(",", " "))
            for ln in _text_lines(source)]
    if rows and len(rows[0]) == 1:
        rows.insert(0, [])
    if not rows:
        raise ValueError("empty distance file")
    for i, row in enumerate(rows):
        if len(row) != i:
            raise ValueError(f"row {i} has {len(row)} entries, expected {i}")
    values = np.concatenate(rows)  # pair (i, j), i < j, at j(j-1)/2 + i
    bad = np.flatnonzero(~np.isfinite(values) | (values < 0))
    if bad.size:
        p = int(bad[0])
        row = (1 + math.isqrt(1 + 8 * p)) // 2  # the j of p = j(j-1)/2 + i, i < j
        raise ValueError(f"invalid distance {float(values[p])} at row {row}")
    n = len(rows)
    out = np.empty(n * (n - 1) // 2)
    for start, i, j in _upper_blocks(n):
        out[start : start + len(i)] = values[j * (j - 1) // 2 + i]
    return out

"""Point-cloud ingestion, KDE densities, and density-Rips graph construction.

A point cloud becomes a complete bifiltered graph: the first coordinate of an
edge grade is the negated smaller density of its endpoints (so denser points
enter earlier under the standard coordinate-wise order), the second is the
Euclidean distance.  Densities default to an unnormalized Gaussian kernel sum
whose bandwidth is the nearest-rank 20th percentile of the distinct pairwise
distances; any strictly monotone rescaling of densities yields the same graph
up to axis relabeling, so the normalization constant is omitted.
Distances are computed with numpy in scipy's summation order, so they are
bit-identical to scipy.spatial.distance.pdist, and the graph is built from
the grade arrays in one graph_from_arrays call.  load_points and
load_lower_distance_matrix read a path or a text stream through
core._text_lines and convert one row at a time through core._numbers.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO

import numpy as np

from .core import BifilteredGraph, _numbers, _text_lines, graph_from_arrays

DATASET_KINDS = ("sphere", "uniform", "circle", "torus", "swiss-roll")


# -- distances and densities ---------------------------------------------------


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Condensed Euclidean distances over unordered pairs, in (i < j) order.

    Squared coordinate differences are summed one coordinate at a time
    before the square root, the order scipy's pdist uses, so the values are
    bit-identical to it.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) < 2:
        raise ValueError("need at least 2 points of uniform dimension")
    i, j = np.triu_indices(len(points), k=1)
    total = np.zeros(len(i))
    for column in points.T:
        diff = column[i] - column[j]
        total += diff * diff
    return np.sqrt(total)


def square_form(condensed: np.ndarray) -> np.ndarray:
    """Symmetric square matrix, zero diagonal, from condensed distances
    (the inverse of reading the strict upper triangle row by row)."""
    condensed = np.asarray(condensed, dtype=float)
    n = int(round((1 + math.sqrt(1 + 8 * len(condensed))) / 2))
    if n * (n - 1) // 2 != len(condensed):
        raise ValueError(f"{len(condensed)} distances are not n(n-1)/2 for any n")
    i, j = np.triu_indices(n, k=1)
    out = np.zeros((n, n))
    out[i, j] = out[j, i] = condensed
    return out


def kde_bandwidth(distances: np.ndarray) -> float:
    """Nearest-rank 20th percentile of the distinct distance values."""
    distinct = np.unique(np.asarray(distances, dtype=float))
    if distinct.size == 0 or distinct[-1] == 0.0:
        raise ValueError("degenerate cloud: all pairwise distances are zero")
    h = float(distinct[math.ceil(0.2 * distinct.size) - 1])
    if h == 0.0:
        raise ValueError("degenerate cloud: zero bandwidth at the 20th percentile")
    return h


def kde_density_from_matrix(dist: np.ndarray, h: float) -> np.ndarray:
    """Unnormalized Gaussian kernel sums from a square distance matrix.

    Row sums include the self term exp(0) = 1, so values are >= 1.
    """
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    dist = np.asarray(dist, dtype=float)
    return np.exp(-(dist**2) / (2.0 * h * h)).sum(axis=1)


def kde_density(points: np.ndarray, h: float) -> np.ndarray:
    """Per-point unnormalized Gaussian KDE values."""
    points = np.asarray(points, dtype=float)
    if len(points) == 1:
        if h <= 0:
            raise ValueError("bandwidth must be positive")
        return np.ones(1)
    return kde_density_from_matrix(square_form(pairwise_distances(points)), h)


# -- density-Rips construction --------------------------------------------------


def density_rips_from_distances(
    dist: np.ndarray, densities: np.ndarray
) -> BifilteredGraph:
    """Complete graph graded by (-min endpoint density, distance)."""
    dist = np.asarray(dist, dtype=float)
    densities = np.asarray(densities, dtype=float)
    n = len(densities)
    if dist.shape != (n, n):
        raise ValueError(f"distance matrix shape {dist.shape} does not match {n} densities")
    neg = -densities
    u, v = np.triu_indices(n, k=1)
    return graph_from_arrays(n, u, v, np.maximum(neg[u], neg[v]), dist[u, v])


def density_rips_graph(points: np.ndarray, densities: np.ndarray) -> BifilteredGraph:
    """Density-Rips bifiltered complete graph of a point cloud."""
    points = np.asarray(points, dtype=float)
    densities = np.asarray(densities, dtype=float)
    if len(points) != len(densities):
        raise ValueError("densities length does not match point count")
    return density_rips_from_distances(square_form(pairwise_distances(points)), densities)


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
    """Square distance matrix from a strictly-lower-triangular text file.

    Line i carries the i finite, non-negative distances to earlier points;
    a leading empty row (zero entries for the first point) may be omitted.
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
    values = np.concatenate(rows)
    lower = np.tril_indices(len(rows), -1)  # the (row, column) of each value, in file order
    bad = np.flatnonzero(~np.isfinite(values) | (values < 0))
    if bad.size:
        raise ValueError(f"invalid distance {float(values[bad[0]])} at row {lower[0][bad[0]]}")
    dist = np.zeros((len(rows), len(rows)))
    dist[lower] = dist[lower[::-1]] = values
    return dist

"""Write one workload input file from a seed.

Runs in its own process, so the memory of the n x n distance work here never
reaches a measured run.  Uses only numpy/scipy, never bicollapse, so a change
to the library cannot change what is measured.

    python3 perfbench/gen.py --kind torus --n 400 --seed 1 --out FILE
    python3 perfbench/gen.py --kind sparse --n 3000 --edges 60000 --seed 1 --out FILE

torus: n points on a torus (R=1, r=0.5), angle-uniform, one "x y z" per line.
sparse: n uniform points in the unit square; the edge list ("n m" header,
then "u v s t") of the m shortest pairs, graded density-Rips style by
(-smaller endpoint density, distance), densities being unnormalized
Gaussian kernel sums with the nearest-rank 20th-percentile bandwidth.
"""

from __future__ import annotations

import argparse
import math
import os
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist


def torus_points(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    ring = 1.0 + 0.5 * np.cos(phi)
    return np.column_stack([ring * np.cos(theta), ring * np.sin(theta), 0.5 * np.sin(phi)])


def sparse_edge_lines(n: int, m: int, seed: int) -> list[str]:
    points = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 2))
    dist = pdist(points)
    if m > dist.size:
        raise ValueError(f"{m} edges requested, only {dist.size} pairs exist")
    distinct = np.unique(dist)
    h = float(distinct[math.ceil(0.2 * distinct.size) - 1])
    rows, cols = np.triu_indices(n, 1)
    kernel = np.exp(-(dist**2) / (2.0 * h * h))
    # Row sums of the symmetric kernel matrix, self term exp(0) = 1 included.
    density = 1.0 + np.bincount(rows, kernel, n) + np.bincount(cols, kernel, n)
    keep = np.sort(np.argsort(dist, kind="stable")[:m])  # (u, v) order
    u, v, d = rows[keep], cols[keep], dist[keep]
    s = np.maximum(-density[u], -density[v])
    lines = [f"{n} {m}"]
    lines.extend(f"{a} {b} {float(x)!r} {float(y)!r}" for a, b, x, y in zip(u.tolist(), v.tolist(), s, d))
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kind", choices=("torus", "sparse"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edges", type=int, default=0, help="edge count (sparse only)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.kind == "torus":
        lines = [" ".join(repr(float(x)) for x in row) for row in torus_points(args.n, args.seed)]
    else:
        lines = sparse_edge_lines(args.n, args.edges, args.seed)
    tmp = args.out.with_name(f"{args.out.name}.{os.getpid()}.tmp")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

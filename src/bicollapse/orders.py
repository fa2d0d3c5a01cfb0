"""Deterministic edge-processing orders for the greedy collapse pass.

Four dictionary orders on the grade plane plus a seeded random shuffle.  The
reverse kinds are exact element-wise reversals of their forward counterparts,
tie-break included, so benchmark runs are replayable from the order name (and
seed) alone.  Orders are computed on the graph's edge arrays with one
np.lexsort or one permutation; Edge tuples are built only for the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import BifilteredGraph, Edge

ORDER_KINDS = ("lex", "colex", "revlex", "revcolex", "random")


@dataclass(frozen=True)
class EdgeOrder:
    """An edge total order: a dictionary order on grades or a seeded shuffle.

    Grade ties are broken by the (u, v) vertex pair, so every kind is a total
    order and sorting is deterministic.
    """

    kind: str = "revlex"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}, expected one of {ORDER_KINDS}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random order requires a seed")


def sort_edges(graph: BifilteredGraph, order: EdgeOrder) -> list[Edge]:
    """The graph's edges as a new list arranged in the given order.

    lex is np.lexsort((v, u, t, s)) over the upper half-edges (u < v), the
    (s, t, u, v) dictionary order, and colex swaps s and t.  Coordinates
    that compare equal (0.0 and -0.0 included) fall through to the next
    key, as in a sort on the (s, t, u, v) tuple.  random permutes the
    (u, v)-ordered edges with default_rng(seed).
    """
    u, v = graph.half_edges()
    upper = np.flatnonzero(u < v)  # each edge once, in (u, v) order
    s, t = graph.half_grades()[upper].T
    if order.kind == "random":
        perm = np.random.default_rng(order.seed).permutation(len(upper))
    elif order.kind in ("lex", "revlex"):
        perm = np.lexsort((v[upper], u[upper], t, s))
    else:
        perm = np.lexsort((v[upper], u[upper], s, t))
    if order.kind in ("revlex", "revcolex"):
        perm = perm[::-1]
    half = upper[perm]
    # The Edges share the rows' grade tuples and one int per vertex, so the
    # list costs no new grade or id objects.
    ids = np.arange(graph.n).astype(object)
    grades = np.fromiter(chain.from_iterable(row.values() for row in graph.adj), object, len(u))
    return list(map(Edge, ids[u[half]].tolist(), ids[v[half]].tolist(), grades[half].tolist()))

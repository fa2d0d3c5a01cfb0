"""Deterministic edge-processing orders for the greedy collapse pass.

Four dictionary orders on the grade plane plus a seeded random shuffle.  The
reverse kinds are exact element-wise reversals of their forward counterparts,
tie-break included, so benchmark runs are replayable from the order name (and
seed) alone.  Each order is one stable np.lexsort of graph.edge_arrays()'s
grade columns, or one permutation, returned as positions into those
arrays, so no Edge is built to sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BifilteredGraph

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


def sort_edges(graph: BifilteredGraph, order: EdgeOrder) -> np.ndarray:
    """The edge_list() index of each edge in the given order, as an int64
    array of positions into graph.edge_arrays().

    lex is one stable np.lexsort((t, s)) over the grade columns, colex
    swaps s and t.  The columns are in (u, v) order, so the stable sort
    breaks grade ties by (u, v): the (s, t, u, v) order.  Coordinates that
    compare equal (0.0 and -0.0 included) fall through to the next key, as
    in a sort on that tuple.  random permutes them with default_rng(seed).
    """
    _, _, s, t = graph.edge_arrays()
    if order.kind == "random":
        perm = np.random.default_rng(order.seed).permutation(len(s))
    else:
        perm = np.lexsort((t, s) if order.kind in ("lex", "revlex") else (s, t))
    if order.kind in ("revlex", "revcolex"):
        perm = perm[::-1]
    return perm.astype(np.int64, copy=False)

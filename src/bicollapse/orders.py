"""Deterministic edge-processing orders for the greedy collapse pass.

Four dictionary orders on the grade plane plus a seeded random shuffle.  The
reverse kinds are exact element-wise reversals of their forward counterparts,
tie-break included, so benchmark runs are replayable from the order name (and
seed) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Edge

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


def _lex_key(e: Edge):
    return (e.grade[0], e.grade[1], e.u, e.v)


def _colex_key(e: Edge):
    return (e.grade[1], e.grade[0], e.u, e.v)


def sort_edges(edges: Iterable[Edge], order: EdgeOrder) -> list[Edge]:
    """Return the edges as a new list arranged in the given order."""
    out = list(edges)
    if order.kind == "random":
        rng = np.random.default_rng(order.seed)
        return [out[i] for i in rng.permutation(len(out))]
    out.sort(key=_lex_key if order.kind in ("lex", "revlex") else _colex_key)
    if order.kind in ("revlex", "revcolex"):
        out.reverse()
    return out

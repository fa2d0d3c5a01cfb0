from __future__ import annotations

import numpy as np
import pytest

from bicollapse.core import Edge
from bicollapse.orders import ORDER_KINDS, EdgeOrder, sort_edges
from bicollapse.oracle import random_grid_graph


def _edges(grades):
    return [Edge(i, i + 1, g) for i, g in enumerate(grades)]


SAMPLE_GRADES = [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)]


def test_lex_example():
    got = sort_edges(_edges(SAMPLE_GRADES), EdgeOrder("lex"))
    assert [e.grade for e in got] == [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]


def test_colex_example():
    got = sort_edges(_edges(SAMPLE_GRADES), EdgeOrder("colex"))
    assert [e.grade for e in got] == [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]


def test_revlex_example():
    got = sort_edges(_edges(SAMPLE_GRADES), EdgeOrder("revlex"))
    assert [e.grade for e in got] == [(2.0, 1.0), (1.0, 2.0), (1.0, 1.0)]


def test_reverse_kinds_are_exact_reversals():
    rng = np.random.default_rng(2)
    edges = random_grid_graph(12, 0.5, rng, grid_side=3).edge_list()
    for fwd, rev in (("lex", "revlex"), ("colex", "revcolex")):
        a = sort_edges(edges, EdgeOrder(fwd))
        b = sort_edges(edges, EdgeOrder(rev))
        assert b == list(reversed(a))


def test_tie_break_by_vertex_pair():
    edges = [Edge(2, 3, (0.0, 0.0)), Edge(0, 1, (0.0, 0.0)), Edge(0, 2, (0.0, 0.0))]
    got = sort_edges(edges, EdgeOrder("lex"))
    assert [(e.u, e.v) for e in got] == [(0, 1), (0, 2), (2, 3)]


def test_every_kind_is_a_permutation():
    rng = np.random.default_rng(4)
    edges = random_grid_graph(10, 0.6, rng).edge_list()
    for kind in ORDER_KINDS:
        order = EdgeOrder(kind, seed=7 if kind == "random" else None)
        assert sorted(sort_edges(edges, order)) == sorted(edges)


def test_random_seed_reproducible():
    rng = np.random.default_rng(6)
    edges = random_grid_graph(10, 0.6, rng).edge_list()
    a = sort_edges(edges, EdgeOrder("random", seed=123))
    b = sort_edges(edges, EdgeOrder("random", seed=123))
    c = sort_edges(edges, EdgeOrder("random", seed=124))
    assert a == b
    assert a != c


def test_random_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        EdgeOrder("random")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown order kind"):
        EdgeOrder("sorted")

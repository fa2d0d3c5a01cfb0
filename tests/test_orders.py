from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicollapse.core import Edge, graph_from_arrays, graph_from_edges
from bicollapse.orders import ORDER_KINDS, EdgeOrder, sort_edges
from bicollapse.oracle import random_grid_graph


def _path(grades):
    return graph_from_edges(len(grades) + 1, [Edge(i, i + 1, g) for i, g in enumerate(grades)])


SAMPLE_GRADES = [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)]


def _sorted(g, order: EdgeOrder) -> list[Edge]:
    """g.edge_list() in the order sort_edges gives, by indexing with its positions."""
    edges = g.edge_list()
    return [edges[i] for i in sort_edges(g, order).tolist()]


def test_lex_example():
    got = _sorted(_path(SAMPLE_GRADES), EdgeOrder("lex"))
    assert [e.grade for e in got] == [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]


def test_colex_example():
    got = _sorted(_path(SAMPLE_GRADES), EdgeOrder("colex"))
    assert [e.grade for e in got] == [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]


def test_revlex_example():
    got = _sorted(_path(SAMPLE_GRADES), EdgeOrder("revlex"))
    assert [e.grade for e in got] == [(2.0, 1.0), (1.0, 2.0), (1.0, 1.0)]


def test_reverse_kinds_are_exact_reversals():
    rng = np.random.default_rng(2)
    g = random_grid_graph(12, 0.5, rng, grid_side=3)
    for fwd, rev in (("lex", "revlex"), ("colex", "revcolex")):
        a = sort_edges(g, EdgeOrder(fwd))
        b = sort_edges(g, EdgeOrder(rev))
        assert b.tolist() == a.tolist()[::-1]


def test_tie_break_by_vertex_pair():
    edges = [Edge(2, 3, (0.0, 0.0)), Edge(0, 1, (0.0, 0.0)), Edge(0, 2, (0.0, 0.0))]
    got = _sorted(graph_from_edges(4, edges), EdgeOrder("lex"))
    assert [(e.u, e.v) for e in got] == [(0, 1), (0, 2), (2, 3)]


def test_every_kind_is_a_permutation():
    # The positions index edge_arrays(): each edge once, and the permuted
    # columns build the same graph back.
    rng = np.random.default_rng(4)
    g = random_grid_graph(10, 0.6, rng)
    for kind in ORDER_KINDS:
        positions = sort_edges(g, EdgeOrder(kind, seed=7 if kind == "random" else None))
        assert positions.dtype == np.int64
        assert sorted(positions.tolist()) == list(range(g.edge_count()))
        assert graph_from_arrays(g.n, *(x[positions] for x in g.edge_arrays())) == g


def test_random_seed_reproducible():
    rng = np.random.default_rng(6)
    g = random_grid_graph(10, 0.6, rng)
    a = sort_edges(g, EdgeOrder("random", seed=123))
    b = sort_edges(g, EdgeOrder("random", seed=123))
    c = sort_edges(g, EdgeOrder("random", seed=124))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        EdgeOrder("random")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown order kind"):
        EdgeOrder("sorted")


# -- the array order equals the key sort ----------------------------------------


def _key_sorted(edges: list[Edge], order: EdgeOrder) -> list[Edge]:
    """Reference: a stable Python sort of the (u, v)-ordered edges on the
    (s, t, u, v) or (t, s, u, v) key, reversed for the rev kinds."""
    if order.kind == "random":
        return [edges[i] for i in np.random.default_rng(order.seed).permutation(len(edges))]
    if order.kind in ("lex", "revlex"):
        out = sorted(edges, key=lambda e: (e.grade[0], e.grade[1], e.u, e.v))
    else:
        out = sorted(edges, key=lambda e: (e.grade[1], e.grade[0], e.u, e.v))
    if order.kind in ("revlex", "revcolex"):
        out.reverse()
    return out


def _exact(edges: list[Edge]) -> list[tuple]:
    # repr tells -0.0 from 0.0, which == does not.
    return [(e.u, e.v, repr(e.grade[0]), repr(e.grade[1])) for e in edges]


# Few values, so equal s with different t and equal grades are common, and
# -0.0 sits next to 0.0.
_TIE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])


@st.composite
def _tied_graphs(draw):
    n = draw(st.integers(2, 10))
    pairs = draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] < p[1]), max_size=30)
    )
    grade = st.tuples(_TIE_FLOATS, _TIE_FLOATS)
    edges = [Edge(u, v, draw(grade)) for u, v in sorted(pairs)]
    # Build from shuffled triples with randomly flipped endpoints.
    built = [Edge(e.v, e.u, e.grade) if draw(st.booleans()) else e for e in edges]
    return edges, graph_from_edges(n, draw(st.permutations(built)))


@settings(max_examples=150, deadline=None)
@given(drawn=_tied_graphs(), seed=st.integers(0, 2**32 - 1))
def test_array_order_matches_key_sort(drawn, seed):
    edges, g = drawn
    assert _exact(g.edge_list()) == _exact(edges)
    # The array view holds the same edges, -0.0 included, in the same order.
    u, v, s, t = (x.tolist() for x in g.edge_arrays())
    assert _exact(list(map(Edge, u, v, zip(s, t)))) == _exact(edges)
    assert graph_from_arrays(g.n, *g.edge_arrays()) == g
    for kind in ORDER_KINDS:
        order = EdgeOrder(kind, seed=seed if kind == "random" else None)
        assert _exact(_sorted(g, order)) == _exact(_key_sorted(edges, order))

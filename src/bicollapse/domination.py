"""Strong and full filtration-domination checks for 1-critical edges.

Two decision procedures.  The strong check looks for a single vertex that
dominates the edge at every grade by serial trial: candidates in ascending
id, the first that passes wins.  In its row form a trial looks each edge
neighbor up in the candidate's adjacency row and stops at the first miss;
on a dense mirror (_DenseStrongEngine) it counts the cells of the
candidate's row above the edge's entry vector, and after a few failed
candidates one batched comparison tests the rest.  The checks use grades
only through <= and the join, which a strictly increasing map keeps, so
the mirror is one int32 (n, 2, n) array of each coordinate's rank among
the edge grades on its axis, the largest int32 for absent edges and -1
on the diagonal.  Both forms return the same vertex, a Python int.  Each
form is a store with one interface, _RowStore over rows and the engine over
the mirror: remove(u, v), strong_dominator(e) and neighbor_grades(e).  A
collapse pass owns one store and removes from it; a one-off query reads
graph.adj through a _RowStore and removes nothing.
The full check lets the dominating vertex change with the grade.  It
counts, for every edge neighbor at once, where that neighbor dominates on a
grid of grades built from the neighbors' entry coordinates
(_DominationGrid): a 2-D prefix sum per neighbor, done with one
searchsorted per axis, bincount and cumsum.  The edge is dominated iff every
grid grade is covered.  Two cheaper tests reject most misses before the grid
is built: no neighbor enters at crit(e), or at some neighbor's entry grade
no present neighbor is joined to every other present one by then.  It runs
in the mirror's ranks or on the rows' float grades.  Handed a store, neither
predicate reads the graph, and both reject an edge the store does not hold
with that grade.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .core import NEVER, BifilteredGraph, Edge, Grade, edge_neighborhood

# -- the two stores and strong filtration-domination -------------------------


def is_strongly_dominated(
    graph: BifilteredGraph, e: Edge, engine: _DenseStrongEngine | _RowStore | None = None
) -> int | None:
    """Smallest vertex that alone dominates e at every grade, if any.

    Serial trial (Boissonnat-Pritam): candidates are tried in ascending id
    and the first that passes wins.  A candidate must be a potential strong
    dominator (both its edges to the endpoints critical at or before
    crit(e)) and must reach every other edge neighbor w no later than w's
    entry grade.  Each trial is one row lookup per edge neighbor, so a hit
    on an early candidate costs O(min(deg(a), deg(b))).  engine, when
    given, is the store of graph that a pass works on, its rows or its
    dense mirror, and runs the trial without reading graph; otherwise the
    trial reads graph.adj.
    """
    return (engine or _RowStore(graph.adj)).strong_dominator(e)


class _RowStore:
    """Adjacency rows answering both checks by lookups.

    A pass above DENSE_LIMIT owns its rows and removes from them; a one-off
    query wraps graph.adj, which it only reads.
    """

    def __init__(self, adj: list[dict[int, Grade]]):
        self.adj = adj

    def remove(self, u: int, v: int) -> None:
        del self.adj[u][v], self.adj[v][u]  # deleting a key keeps the others in order

    def strong_dominator(self, e: Edge) -> int | None:
        nbhd = edge_neighborhood(self.adj, e)
        for v, entry in nbhd:
            # entry(v) always dominates crit(e), with equality iff both edge
            # grades are <= crit(e): exactly the potential-strong-dominator test.
            if entry == e.grade:
                row = self.adj[v]
                for w, (s, t) in nbhd:
                    g = row.get(w, NEVER)
                    if (g[0] > s or g[1] > t) and w != v:
                        break
                else:
                    return v
        return None

    def neighbor_grades(self, e: Edge) -> tuple[Grade | np.ndarray, ...]:
        """_DenseStrongEngine.neighbor_grades in float grades, the diagonal
        -inf: each pair of neighbors is looked up in the rows."""
        nbhd = edge_neighborhood(self.adj, e)
        k = len(nbhd)
        ids = [w for w, _ in nbhd]
        grades = chain.from_iterable(self.adj[v].get(w, NEVER) for v in ids for w in ids)
        block = np.fromiter(grades, float, 2 * k * k).reshape(k, k, 2)
        block[np.arange(k), np.arange(k)] = -np.inf
        entries = np.reshape([entry for _, entry in nbhd], (k, 2))
        return e.grade, entries[:, 0], entries[:, 1], block[..., 0], block[..., 1]


# A rank above every edge's: the mirror's entry for an absent edge.
_ABSENT = np.iinfo(np.int32).max


class _DenseStrongEngine:
    """Array mirror of a graph answering the strong check with row vector ops.

    The vectorized form of is_strongly_dominated's serial trial, for graphs
    small enough to hold an (n, 2, n) array.  M[u, :, v] holds the ranks
    of edge uv's grade among the distinct edge coordinates values[0] (s)
    and values[1] (t); absent edges hold _ABSENT and the diagonal -1, so
    every presence test, crit(e) included, is read off M.  Semantics match
    is_strongly_dominated exactly, smallest-id tie-break included.  The
    full check gathers its neighbor grades from the same mirror.
    """

    def __init__(self, graph: BifilteredGraph):
        n = graph.n
        u, v, *grades = graph.edge_arrays()
        self.M = np.full((n, 2, n), _ABSENT, dtype=np.int32)
        self.values = []
        for axis, x in enumerate(grades):
            values, rank = np.unique(x, return_inverse=True)
            self.M[u, axis, v] = self.M[v, axis, u] = rank
            self.values.append(values)
        ids = np.arange(n)
        self.M[ids, :, ids] = -1

    def remove(self, u: int, v: int) -> None:
        self.M[u, :, v] = self.M[v, :, u] = _ABSENT

    def crit(self, e: Edge) -> np.ndarray:
        """crit(e) in ranks, M[e.u, :, e.v]; ValueError unless the mirror
        holds the edge with exactly e's grade."""
        (u, v, (gs, gt)), n = e, len(self.M)
        if 0 <= u < n and 0 <= v < n and u != v:
            crit = self.M[u, :, v]
            s, t = crit.tolist()
            if s != _ABSENT and self.values[0][s] == gs and self.values[1][t] == gt:
                return crit
        raise ValueError(f"edge ({u}, {v}) with grade {e.grade} not in graph")

    # Serial candidate tries beyond this count switch to one batched check:
    # the serial path wins when an early candidate succeeds (the common case
    # on structured grades), the batch caps the cost when most or all fail.
    _SERIAL_TRIES = 6

    def strong_dominator(self, e: Edge) -> int | None:
        # entry[:, w] is entry(w) for an edge neighbor w, _ABSENT for a
        # vertex not adjacent to both endpoints, and crit(e) at the endpoints
        # (the -1 diagonal), which must therefore be left out as candidates.
        crit = self.crit(e)[:, None]
        entry = np.maximum(self.M[e.u], self.M[e.v])
        np.maximum(entry, crit, out=entry)
        le = entry <= crit
        cand = le[0] & le[1]
        cand[e.u] = cand[e.v] = False
        ids = cand.nonzero()[0]
        # A candidate v passes iff no cell of M[v] exceeds entry: its own -1
        # diagonal, the _ABSENT entries and its edges to the endpoints (both
        # <= crit(e)) pass by construction, so only the edge neighbors test.
        for v in ids[: self._SERIAL_TRIES].tolist():
            if not np.count_nonzero(self.M[v] > entry):
                return v
        rest = ids[self._SERIAL_TRIES :]
        if rest.size == 0:
            return None
        hits = (self.M[rest] <= entry).all(axis=(1, 2)).nonzero()[0]
        return int(rest[hits[0]]) if hits.size else None

    def neighbor_grades(self, e: Edge) -> tuple[np.ndarray, ...]:
        """crit(e), entry grades of e's edge neighbors, grades of edges among them.

        Returns crit, entry_s, entry_t (length k, neighbors in ascending id)
        and block_s, block_t (k x k, absent edges above every grade and the
        diagonal below every grade: -1 here, in ranks sliced from the mirror,
        and -inf in _RowStore's float grades).  So a neighbor is always
        joined to itself, and the entry-grade probe of
        is_filtration_dominated needs no mask for it.
        """
        crit, M = self.crit(e), self.M
        # Column w holds the join of the grades of uw and vw: below _ABSENT
        # iff w is adjacent to both, and entry(w) once joined with crit(e).
        joined = np.maximum(M[e.u], M[e.v])
        present = joined[0] < _ABSENT
        present[e.u] = present[e.v] = False
        ids = present.nonzero()[0]
        entry = np.maximum(joined[:, ids], crit[:, None])
        block = M[ids][:, :, ids]
        return crit, entry[0], entry[1], block[:, 0], block[:, 1]


# -- full filtration-domination ----------------------------------------------

# Cells per chunk of the full check's broadcasts: about 2 MB of the grid's
# int64 counts, 256 KB per boolean array of the entry-grade probe, so the
# check's memory stays flat however large the neighborhood.
_CHUNK_CELLS = 1 << 18


class _DominationGrid:
    """Where each edge neighbor dominates e, on the grid xs x ys.

    xs and ys are the distinct entry coordinates.  Preconditions, which
    neighbor_grades and the early exit of is_filtration_dominated ensure:
    the block's diagonal is below every grade, and some neighbor enters at
    crit(e), so crit(e) is the grid's lowest grade.  Entries are >= crit(e),
    so every grid grade is >= crit(e), and the grid holds crit(e) joined
    with any set of entry grades.  Only those grades need a test: the
    neighbors present at a grade c are already present at the join d <= c
    of their entries with crit(e), and domination at d implies domination
    at c.

    Neighbor v dominates e at c iff entry(v) <= c and
    N_v(c) = #{w != v : entry(w) <= c} - #{w != v : join(entry(w), crit(vw)) <= c}
    is 0, where crit(vw) is +inf when vw is absent.  Every term is the
    indicator of a quadrant, so N_v on the grid is a 2-D prefix sum of unit
    masses, each placed at the rank of its corner: the index of the first
    grid coordinate at or above it, one past the grid when there is none.
    """

    def __init__(self, entry_s, entry_t, block_s, block_t):
        self.xs, self.ys = np.unique(entry_s), np.unique(entry_t)
        self.shape = (len(self.xs) + 1, len(self.ys) + 1)
        # Row i holds the joins for candidate i.  The block's diagonal is below
        # every grade, so it joins to the candidate's own entry, and one
        # searchsorted per axis ranks the joins and entries.
        join_s, join_t = np.maximum(block_s, entry_s), np.maximum(block_t, entry_t)
        self._join = np.searchsorted(self.xs, join_s) * self.shape[1]
        self._join += np.searchsorted(self.ys, join_t)
        self._entry = self._join.diagonal()

    def dominates(self, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, len(xs), len(ys)) booleans: neighbor lo + i dominates e
        at grade (xs[a], ys[b])."""
        m = hi - lo
        size = self.shape[0] * self.shape[1]
        offsets = np.arange(m + 1) * size
        # Slot m counts the present neighbors.  Slot i counts the joins, where
        # the diagonal holds candidate i's own entry, and that entry once
        # more: so it exceeds slot m, by 1, exactly where the candidate is
        # present and N_v = 0.
        masses = np.concatenate(
            (
                (self._join[lo:hi] + offsets[:m, None]).ravel(),
                self._entry[lo:hi] + offsets[:m],
                self._entry + offsets[m],
            )
        )
        counts = np.bincount(masses, minlength=(m + 1) * size)
        counts = counts.reshape(m + 1, *self.shape)
        np.cumsum(counts, axis=1, out=counts)
        np.cumsum(counts, axis=2, out=counts)
        return counts[:m, :-1, :-1] > counts[m, :-1, :-1]


def is_filtration_dominated(
    graph: BifilteredGraph, e: Edge, engine: _DenseStrongEngine | _RowStore | None = None
) -> bool:
    """Is e dominated at every grade at which it is present?

    True iff every point of the _DominationGrid is covered by some dominating
    neighbor.  Two exact tests answer False first, each at a grade where e
    is present.  At crit(e): no neighbor enters there, so none is present.
    At each neighbor's entry grade c: no neighbor v present at c has every
    present w joined to it by c, which is one (cells, k, k) comparison of
    the block against the entry grades.  Only the grid can answer True.
    Entry grades and grid candidates are taken in chunks of ascending id,
    sized so one chunk's work arrays stay within _CHUNK_CELLS cells; the
    probe stops at the first uncovered entry grade and the grid as soon as
    it is covered.  engine, when given, is the store of graph to gather the
    grades from, as in is_strongly_dominated; the mirror gives them in ranks.
    """
    crit, entry_s, entry_t, block_s, block_t = (engine or _RowStore(graph.adj)).neighbor_grades(e)
    # Entries are >= crit(e), so <= here means equal.
    if not ((entry_s <= crit[0]) & (entry_t <= crit[1])).any():
        return False
    k = len(entry_s)
    step = max(1, _CHUNK_CELLS // (k * k))
    for lo in range(0, k, step):
        s, t = entry_s[lo : lo + step, None], entry_t[lo : lo + step, None]
        # At entry grade j: present[j, w], w is an edge neighbor there, and
        # late[j, v, w], the edge vw is not yet there.
        present = (entry_s <= s) & (entry_t <= t)
        late = (block_s > s[..., None]) | (block_t > t[..., None])
        late &= present[:, None, :]
        if not (present & ~late.any(axis=2)).any(axis=1).all():
            return False
    grid = _DominationGrid(entry_s, entry_t, block_s, block_t)
    step = max(1, _CHUNK_CELLS // (grid.shape[0] * grid.shape[1]))
    covered = np.zeros((len(grid.xs), len(grid.ys)), dtype=bool)
    for lo in range(0, k, step):
        covered |= grid.dominates(lo, min(lo + step, k)).any(axis=0)
        if covered.all():
            return True
    return False

"""Strong and full filtration-domination checks for 1-critical edges.

Two decision procedures.  The strong check looks for a single vertex that
dominates the edge at every grade by serial trial: candidates in ascending
id, the first that passes wins.  It has two storage forms, a merged scan of
the sorted adjacency lists (is_strongly_dominated) and the same trial on a
dense n x n grade mirror (_DenseStrongEngine) that switches to one batched
check after a few failed candidates; both return the same vertex.  The full
check decides domination grade-by-grade, but only at the finitely many
query grades where the answer can change (the pairwise joins of neighbor
entry grades); per candidate vertex the grades where it fails to dominate
form a union of axis-aligned stripes that supports O(log r) membership tests
after an O(r log r) sweep-line merge.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    NEVER,
    BifilteredGraph,
    Edge,
    EdgeNeighbor,
    Grade,
    edge_neighborhood,
    join,
    leq,
)

# A stripe is (lo, hi, bound): a half-open interval [lo, hi) on one axis and
# a closed lower bound on the other.
Stripe = tuple[float, float, float]


# -- Delta regions -----------------------------------------------------------


@dataclass(frozen=True)
class DeltaRegion:
    """The set Delta(p, q) = {r : p <= r and not q <= r}.

    Empty iff q <= p; otherwise the union of at most one vertical stripe
    (s in [p.s, q.s), t >= p.t) and one horizontal stripe (t in [p.t, q.t),
    s >= p.s).  q = NEVER yields the full closed upper quadrant at p.
    """

    p: Grade
    q: Grade

    @property
    def is_empty(self) -> bool:
        return leq(self.q, self.p)

    def vertical(self) -> list[Stripe]:
        if self.is_empty or self.q[0] <= self.p[0]:
            return []
        return [(self.p[0], self.q[0], self.p[1])]

    def horizontal(self) -> list[Stripe]:
        if self.is_empty or self.q[1] <= self.p[1]:
            return []
        return [(self.p[1], self.q[1], self.p[0])]

    def contains(self, g: Grade) -> bool:
        return leq(self.p, g) and not leq(self.q, g)


def _merge_stripes(raw: Iterable[Stripe]) -> list[Stripe]:
    """Interior-disjoint stripes with the same union as the input.

    A point at axis coordinate x is covered iff x lies in some interval and
    the cross-axis coordinate reaches that stripe's bound, so the union is
    described by the pointwise-minimum bound over the intervals covering x.
    Sweep the interval endpoints left to right keeping a min-heap of active
    bounds (lazy deletion); emit a stripe whenever the minimum changes.
    """
    events: list[tuple[float, bool, float]] = []
    for lo, hi, bound in raw:
        events.append((lo, False, bound))
        if hi != math.inf:
            events.append((hi, True, bound))
    if not events:
        return []
    events.sort(key=lambda ev: ev[0])

    out: list[Stripe] = []

    def emit(lo: float, hi: float, bound: float) -> None:
        if out and out[-1][1] == lo and out[-1][2] == bound:
            out[-1] = (out[-1][0], hi, bound)
        else:
            out.append((lo, hi, bound))

    heap: list[float] = []
    dead: Counter[float] = Counter()
    prev = events[0][0]
    i = 0
    while i < len(events):
        x = events[i][0]
        if heap and x > prev:
            emit(prev, x, heap[0])
        while i < len(events) and events[i][0] == x:
            _, is_end, bound = events[i]
            if is_end:
                dead[bound] += 1
            else:
                heapq.heappush(heap, bound)
            i += 1
        while heap and dead[heap[0]] > 0:
            dead[heapq.heappop(heap)] -= 1
        prev = x
    if heap:
        emit(prev, math.inf, heap[0])
    return out


@dataclass
class StripeSet:
    """A merged union of Delta regions with binary-searchable membership.

    vertical stripes constrain (s in [lo, hi), t >= bound); horizontal ones
    constrain (t in [lo, hi), s >= bound).  Each family is sorted by lo and
    interior-disjoint.
    """

    vertical: list[Stripe]
    horizontal: list[Stripe]

    def __post_init__(self):
        self._vlo = [s[0] for s in self.vertical]
        self._hlo = [s[0] for s in self.horizontal]

    @classmethod
    def from_regions(cls, regions: Iterable[DeltaRegion]) -> "StripeSet":
        vert: list[Stripe] = []
        horiz: list[Stripe] = []
        for r in regions:
            vert.extend(r.vertical())
            horiz.extend(r.horizontal())
        return cls(_merge_stripes(vert), _merge_stripes(horiz))

    def contains(self, g: Grade) -> bool:
        s, t = g
        i = bisect_right(self._vlo, s) - 1
        if i >= 0:
            lo, hi, bound = self.vertical[i]
            if s < hi and t >= bound:
                return True
        j = bisect_right(self._hlo, t) - 1
        if j >= 0:
            lo, hi, bound = self.horizontal[j]
            if t < hi and s >= bound:
                return True
        return False

    def is_empty(self) -> bool:
        return not self.vertical and not self.horizontal


# -- strong filtration-domination --------------------------------------------


def _reaches_all(lst: Sequence[tuple[int, Grade]], v: int, nbhd: Sequence[EdgeNeighbor]) -> bool:
    """Does v's adjacency list lst hold an edge to every other edge neighbor w
    critical no later than w's entry grade?  One merged scan of two sorted
    lists."""
    i = 0
    for w, w_entry in nbhd:
        if w == v:
            continue
        while i < len(lst) and lst[i][0] < w:
            i += 1
        if i == len(lst) or lst[i][0] != w or not leq(lst[i][1], w_entry):
            return False
    return True


def is_strongly_dominated(graph: BifilteredGraph, e: Edge) -> int | None:
    """Smallest vertex that alone dominates e at every grade, if any.

    Serial trial (Boissonnat-Pritam): candidates are tried in ascending id
    and the first that passes wins.  A candidate must be a potential strong
    dominator (both its edges to the endpoints critical at or before
    crit(e)) and must reach every other edge neighbor w no later than w's
    entry grade.  Each trial is one merged scan, so a hit on an early
    candidate costs O(deg(a) + deg(b) + deg(v)).
    """
    nbhd = edge_neighborhood(graph, e)
    for v, entry in nbhd:
        # entry(v) always dominates crit(e), with equality iff both edge
        # grades are <= crit(e): exactly the potential-strong-dominator test.
        if entry == e.grade and _reaches_all(graph.adj[v], v, nbhd):
            return v
    return None


class _DenseStrongEngine:
    """Matrix mirror of a graph answering the strong check with row vector ops.

    The vectorized form of is_strongly_dominated's serial trial, for graphs
    small enough to hold n x n grade matrices.  S and T hold the grade
    coordinates with +inf marking absent edges (and the diagonal), so
    presence tests are plain comparisons.  Semantics match
    is_strongly_dominated exactly, smallest-id tie-break included.
    """

    def __init__(self, graph: BifilteredGraph):
        n = graph.n
        self.S = np.full((n, n), math.inf)
        self.T = np.full((n, n), math.inf)
        for u, v, (s, t) in graph.edges():
            self.S[u, v] = self.S[v, u] = s
            self.T[u, v] = self.T[v, u] = t

    def remove(self, u: int, v: int) -> None:
        self.S[u, v] = self.S[v, u] = math.inf
        self.T[u, v] = self.T[v, u] = math.inf

    # Serial candidate tries beyond this count switch to one batched check:
    # the serial path wins when an early candidate succeeds (the common case
    # on structured grades), the batch caps the cost when most or all fail.
    _SERIAL_TRIES = 6

    def strong_dominator(self, e: Edge) -> int | None:
        es, et = e.grade
        sa, ta = self.S[e.u], self.T[e.u]
        sb, tb = self.S[e.v], self.T[e.v]
        present = np.isfinite(sa) & np.isfinite(sb)
        if not present.any():
            return None
        cand = present & (sa <= es) & (ta <= et) & (sb <= es) & (tb <= et)
        ids = np.flatnonzero(cand)
        if ids.size == 0:
            return None
        entry_s = np.maximum(np.maximum(sa, sb), es)
        entry_t = np.maximum(np.maximum(ta, tb), et)
        absent = ~present
        for v in ids[: self._SERIAL_TRIES]:
            ok = absent | ((self.S[v] <= entry_s) & (self.T[v] <= entry_t))
            ok[v] = True
            if ok.all():
                return int(v)
        rest = ids[self._SERIAL_TRIES :]
        if rest.size == 0:
            return None
        ok = absent[None, :] | (
            (self.S[rest] <= entry_s[None, :]) & (self.T[rest] <= entry_t[None, :])
        )
        ok[np.arange(rest.size), rest] = True
        hits = np.flatnonzero(ok.all(axis=1))
        return int(rest[hits[0]]) if hits.size else None


# -- full filtration-domination ----------------------------------------------


def _non_domination_regions(
    graph: BifilteredGraph, e: Edge, v: int, nbhd: Sequence[EdgeNeighbor]
) -> list[DeltaRegion]:
    """Raw Delta regions where v fails to dominate e.

    One region for v not yet being a common neighbor, one per other neighbor
    w for w being present while the edge vw is not.
    """
    arrival = join(graph.grade_of(e.u, v), graph.grade_of(e.v, v))
    regions = [DeltaRegion(e.grade, arrival)]
    lst = graph.adj[v]
    i = 0
    for w, w_entry in nbhd:
        if w == v:
            continue
        while i < len(lst) and lst[i][0] < w:
            i += 1
        grade_vw = lst[i][1] if i < len(lst) and lst[i][0] == w else NEVER
        regions.append(DeltaRegion(w_entry, grade_vw))
    return regions


def non_domination_region(graph: BifilteredGraph, e: Edge, v: int) -> StripeSet:
    """Merged stripe set of all grades >= crit(e) where v does not dominate e."""
    nbhd = edge_neighborhood(graph, e)
    if all(w != v for w, _ in nbhd):
        raise ValueError(f"vertex {v} is not an edge neighbor of ({e.u}, {e.v})")
    return StripeSet.from_regions(_non_domination_regions(graph, e, v, nbhd))


def critical_query_set(graph: BifilteredGraph, e: Edge) -> set[Grade]:
    """Grades where domination must be tested: crit(e) and all pairwise joins
    of neighbor entry grades (a pair may repeat a neighbor)."""
    nbhd = edge_neighborhood(graph, e)
    entries = [entry for _, entry in nbhd]
    out = {e.grade}
    for i, g1 in enumerate(entries):
        for g2 in entries[i:]:
            out.add(join(g1, g2))
    return out


def is_filtration_dominated(graph: BifilteredGraph, e: Edge) -> bool:
    """Is e dominated at every grade at which it is present?

    Queries only the critical grades: between them the set of present
    neighbors (and hence the domination status) cannot change.  Candidates
    are tried in ascending id with their non-domination regions built lazily
    and memoized across queries.
    """
    nbhd = edge_neighborhood(graph, e)
    if not nbhd:
        return False
    regions: dict[int, StripeSet] = {}
    for c in sorted(critical_query_set(graph, e)):
        for v, entry in nbhd:
            if not leq(entry, c):
                continue
            region = regions.get(v)
            if region is None:
                region = StripeSet.from_regions(
                    _non_domination_regions(graph, e, v, nbhd)
                )
                regions[v] = region
            if not region.contains(c):
                break
        else:
            return False
    return True

"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail
line (visible with -s, or in the captured output on failure).  Thresholds
are fixed here on purpose; loosening them is a behavior change, not a
test fix.
"""

from __future__ import annotations

import time
from io import StringIO

import numpy as np
import pytest

from bicollapse.build import (
    density_rips_graph,
    generate_dataset,
    kde_bandwidth,
    kde_density,
    pairwise_distances,
)
from bicollapse.collapse import (
    MODES,
    apply_grade_mode,
    collapse_iterated,
)
from bicollapse.core import graph_from_edges
from bicollapse.domination import is_filtration_dominated, is_strongly_dominated
from bicollapse.expand import count_triangles, enumerate_triangles, export_scc2020, parse_scc2020
from bicollapse.oracle import (
    brute_force_filtration_dominated,
    brute_force_strong_dominator,
    join,
    random_grid_graph,
    verify_collapse,
)
from bicollapse.orders import ORDER_KINDS, EdgeOrder

from conftest import make_gap6, without

CORPUS_SEED = 101
HOMOLOGY_SEED = 303
DATASET_SEED = 1
DENSITIES = (0.3, 0.5, 0.8)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def dataset_graph(kind: str, n: int):
    points = generate_dataset(kind, n, seed=DATASET_SEED)
    h = kde_bandwidth(pairwise_distances(points))
    return density_rips_graph(points, kde_density(points, h))


def strong_revlex(graph, iterations: int = 1):
    start = time.perf_counter()
    collapsed, rep = collapse_iterated(
        graph, EdgeOrder("revlex"), mode="strong", iterations=iterations
    )
    return collapsed, rep, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_grid_graph(4 + i % 7, DENSITIES[i % 3], rng) for i in range(200)]


@pytest.fixture(scope="module")
def uniform400():
    return dataset_graph("uniform", 400)


def test_criterion_01_oracle_equivalence(oracle_corpus):
    start = time.perf_counter()
    edges = mismatches = 0
    for graph in oracle_corpus:
        for e in graph.edge_list():
            if is_filtration_dominated(graph, e) != brute_force_filtration_dominated(graph, e):
                mismatches += 1
            edges += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(1, ok, f"200 graphs, {edges} edges, {mismatches} mismatches, {elapsed:.1f}s (< 60s)")


def test_criterion_02_strong_implies_full(oracle_corpus):
    hits = violations = 0
    for graph in oracle_corpus:
        for e in graph.edge_list():
            if is_strongly_dominated(graph, e) is not None:
                hits += 1
                if not is_filtration_dominated(graph, e):
                    violations += 1
    report(2, violations == 0, f"{hits} strongly dominated edges, {violations} violations")


def test_criterion_03_homology_preservation():
    rng = np.random.default_rng(HOMOLOGY_SEED)
    start = time.perf_counter()
    runs = failures = 0
    for i in range(50):
        graph = random_grid_graph(4 + i % 5, DENSITIES[i % 3], rng)
        verified = {}
        for mode in MODES:
            for kind in ORDER_KINDS:
                order = EdgeOrder(kind, seed=9) if kind == "random" else EdgeOrder(kind)
                collapsed, _ = collapse_iterated(graph, order, mode=mode, iterations=2)
                key = frozenset(collapsed.edges())
                if key not in verified:
                    verified[key] = verify_collapse(graph, collapsed).ok
                if not verified[key]:
                    failures += 1
                runs += 1
    elapsed = time.perf_counter() - start

    # Mutation control: deleting a never-dominated edge must be flagged.
    cycle = graph_from_edges(4, [(0, 1, (0.0, 0.0)), (1, 2, (0.0, 0.0)),
                                 (2, 3, (0.0, 0.0)), (0, 3, (0.0, 0.0))])
    mutated = without(cycle, [(0, 1)])
    flagged = not verify_collapse(cycle, mutated).ok

    ok = failures == 0 and flagged and elapsed < 300.0
    report(
        3,
        ok,
        f"{runs} collapse runs on 50 graphs, {failures} failures, "
        f"mutation flagged={flagged}, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_04_gap_between_notions():
    graph = make_gap6()
    e = graph.edge_list()[0]
    assert (e.u, e.v) == (0, 1)
    fully = brute_force_filtration_dominated(graph, e)
    strong = brute_force_strong_dominator(graph, e)
    fast_agrees = is_filtration_dominated(graph, e) and is_strongly_dominated(graph, e) is None
    ok = fully and strong is None and fast_agrees
    report(
        4,
        ok,
        f"edge (0,1): filtration-dominated={fully}, "
        f"strong dominator={strong}, fast checks agree={fast_agrees}",
    )


def test_criterion_05_order_trend(uniform400):
    results = {}
    for kind, graph in (("uniform n=400", uniform400), ("torus n=200", dataset_graph("torus", 200))):
        pct = {}
        for okind in ("lex", "colex", "revlex", "random"):
            order = EdgeOrder(okind, seed=DATASET_SEED) if okind == "random" else EdgeOrder(okind)
            _, rep = collapse_iterated(graph, order, mode="strong")
            pct[okind] = 100.0 * rep.removed_fraction
        results[kind] = pct
    ok = all(
        pct["revlex"] >= pct[other]
        for pct in results.values()
        for other in ("lex", "colex", "random")
    )
    detail = "; ".join(
        f"{kind}: " + " ".join(f"{o}={p:.1f}%" for o, p in pct.items())
        for kind, pct in results.items()
    )
    report(5, ok, detail)


def test_criterion_06_removal_magnitude(uniform400):
    _, rep, elapsed = strong_revlex(uniform400)
    ok = rep.edges_before == 79800 and rep.removed_fraction >= 0.90 and elapsed < 10.0
    report(
        6,
        ok,
        f"uniform n=400: {rep.edges_before} -> {rep.edges_after} edges "
        f"({100 * rep.removed_fraction:.1f}% removed, >= 90%), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_07_iteration_profile(uniform400):
    _, rep, _ = strong_revlex(uniform400, iterations=5)
    m0 = rep.edges_before
    removed = list(rep.removed_per_iteration) + [0] * (5 - len(rep.removed_per_iteration))
    first = removed[0] / m0
    laters = [r / m0 for r in removed[1:5]]
    ok = first >= 0.80 and all(f <= 0.05 for f in laters)
    report(
        7,
        ok,
        f"iteration removals: {[f'{100 * f:.2f}%' for f in [first] + laters]} "
        f"(first >= 80%, rest <= 5%)",
    )


def test_criterion_08_grade_structure_sensitivity(uniform400):
    randomized = apply_grade_mode(uniform400, "random", seed=DATASET_SEED)
    _, rep_random, _ = strong_revlex(randomized)
    zeroed = apply_grade_mode(uniform400, "zeroed")
    _, rep_zeroed, _ = strong_revlex(zeroed)
    ok = rep_random.removed_fraction <= 0.10 and rep_zeroed.removed_fraction >= 0.80
    report(
        8,
        ok,
        f"random grades remove {100 * rep_random.removed_fraction:.2f}% (<= 10%), "
        f"zeroed grades remove {100 * rep_zeroed.removed_fraction:.2f}% (>= 80%)",
    )


def test_criterion_09_expansion_shrinkage(uniform400):
    triangles_before = count_triangles(uniform400)
    collapsed, _, _ = strong_revlex(uniform400)
    triangles = enumerate_triangles(collapsed)
    ratio = len(triangles) / triangles_before

    sink = StringIO()
    export_scc2020(collapsed, triangles, sink)
    parsed = parse_scc2020(StringIO(sink.getvalue()))
    round_trip = parsed.sizes() == (len(triangles), collapsed.edge_count(), collapsed.n)
    join_ok = sum(
        (s, t)
        == join(
            collapsed.grade_of(u, v),
            join(collapsed.grade_of(u, w), collapsed.grade_of(v, w)),
        )
        for u, v, w, s, t in triangles.tolist()
    )
    ok = ratio <= 0.10 and round_trip and join_ok == len(triangles)
    report(
        9,
        ok,
        f"triangles {triangles_before} -> {len(triangles)} "
        f"({100 * ratio:.3f}% kept, <= 10%), round-trip={round_trip}, "
        f"join invariant {join_ok}/{len(triangles)}",
    )


def test_criterion_10_scaling_recorded(uniform400):
    times = {}
    for n in (100, 200):
        _, _, times[n] = strong_revlex(dataset_graph("uniform", n))
    _, _, times[400] = strong_revlex(uniform400)
    r1 = times[200] / times[100] if times[100] > 0 else float("inf")
    r2 = times[400] / times[200] if times[200] > 0 else float("inf")
    envelope = 8.0  # cubic trend per doubling
    report(
        10,
        True,
        f"recorded (not gated): t100={1000 * times[100]:.0f}ms t200={1000 * times[200]:.0f}ms "
        f"t400={1000 * times[400]:.0f}ms, ratios {r1:.1f}x / {r2:.1f}x vs {envelope:.0f}x envelope",
    )

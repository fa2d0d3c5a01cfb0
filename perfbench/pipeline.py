"""One run of the bicollapse expand pipeline, in the process that runs this file.

    python3 perfbench/pipeline.py --input FILE --kind points|edges [--clouds K] \
        --order ORDER --mode MODE --out DIR [--trace] [--corrupt WHAT]

The steps are the library calls `bicollapse expand` makes, stage by stage
over the K equal-size point clouds of a points file (K = 1 for an edge
list): build each input graph (points: pairwise_distances, kde_bandwidth + kde_density,
density_rips_graph; edges: read_edge_list), one collapse_iterated pass,
count_triangles (the CLI's simplex-budget check), enumerate_triangles and
export_scc2020 to DIR/cloud<i>.scc.  Timing starts before `import bicollapse` and ends when the
last scc2020 file is written.  Afterwards, untimed, the outputs are checked:
the collapsed graph and the removal log must partition the input edges with
their grades unchanged, and parse_scc2020 must read back the block sizes
(triangles, edges_after, n).  The last stdout line is one JSON object with
the metrics, the check verdict and the output hashes.

--trace times each layer from outside: the names bicollapse.collapse imports
(sort_edges and the two domination predicates) and BifilteredGraph.copy /
edge_list are wrapped for the collapse call; the other public calls are
timed where they are made.  --corrupt damages an output before the check
and exists only for the benchmark's self-test.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Trace:
    """Per-layer seconds, call counts and counted results; inert unless on."""

    def __init__(self, on: bool):
        self.on = on
        self.seconds: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counted: Counter = Counter()

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        start = time.perf_counter()
        out = fn(*args)
        self.seconds[name] += time.perf_counter() - start
        self.calls[name] += 1
        return out

    def wrap(self, name, fn, count=None):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds[name] += time.perf_counter() - start
            self.calls[name] += 1
            if count is not None:
                self.counted[name] += count(out)
            return out

        return timed


def build_graphs(bc, args, trace) -> list:
    if args.kind == "edges":
        with open(args.input) as fh:
            return [trace.call("core.read_edge_list", bc.read_edge_list, fh)]
    points = trace.call("build.load_points", bc.load_points, args.input)
    n, rest = divmod(len(points), args.clouds)
    if rest:
        raise SystemExit(f"{len(points)} points do not split into {args.clouds} equal clouds")
    graphs = []
    for i in range(args.clouds):
        cloud = points[i * n : (i + 1) * n]
        dist = trace.call("build.pairwise_distances", bc.pairwise_distances, cloud)
        h = trace.call("build.kde", bc.kde_bandwidth, dist)
        density = trace.call("build.kde", bc.kde_density, cloud, h)
        graphs.append(trace.call("build.density_rips_graph", bc.density_rips_graph, cloud, density))
    return graphs


def collapse_all(bc, graphs, args, trace) -> list:
    order = bc.EdgeOrder(args.order)
    if not trace.on:
        return [bc.collapse_iterated(g, order, args.mode, 1) for g in graphs]
    import bicollapse.collapse as layer
    from unittest import mock

    graph_cls = bc.BifilteredGraph
    wrapped = (
        (layer, "sort_edges", trace.wrap("orders.sort_edges", layer.sort_edges, len)),
        (layer, "is_strongly_dominated",
         trace.wrap("domination.strong", layer.is_strongly_dominated, lambda v: v is not None)),
        (layer, "is_filtration_dominated",
         trace.wrap("domination.full", layer.is_filtration_dominated, bool)),
        (graph_cls, "copy", trace.wrap("core.copy", graph_cls.copy)),
        (graph_cls, "edge_list", trace.wrap("core.edge_list", graph_cls.edge_list)),
    )
    with contextlib.ExitStack() as stack:
        for owner, attr, wrapper in wrapped:
            stack.enter_context(mock.patch.object(owner, attr, wrapper))
        return [
            trace.call("collapse.collapse_iterated", bc.collapse_iterated, g, order, args.mode, 1)
            for g in graphs
        ]


def expand(bc, collapsed, path: Path, trace) -> tuple:
    tri_count = trace.call("expand.count_triangles", bc.count_triangles, collapsed)
    triangles = trace.call("expand.enumerate_triangles", bc.enumerate_triangles, collapsed)
    trace.call("expand.export_scc2020", bc.export_scc2020, collapsed, triangles, path)
    return tri_count, triangles


def removal_lines(reports) -> list[str]:
    lines = []
    for c, report in enumerate(reports):
        for i, removed in enumerate(report.removal_log):
            lines.append(f"# cloud {c} pass {i}")
            lines.extend(f"{u} {v} {s!r} {t!r}" for u, v, (s, t) in removed)
    return lines


def check(bc, graph, collapsed, report, triangles, tri_count, scc_text) -> str:
    """'ok', or what is wrong with the outputs."""
    source = {(u, v): g for u, v, g in graph.edges()}
    kept = 0
    for u, v, g in collapsed.edges():
        if source.get((u, v)) != g:
            return f"collapsed edge ({u}, {v}) {g} is not an input edge with that grade"
        kept += 1
    removed = [e for log in report.removal_log for e in log]
    for u, v, g in removed:
        if source.get((u, v)) != g or collapsed.has_edge(u, v):
            return f"removed edge ({u}, {v}) {g} is not an input edge absent from the output"
    if kept + len(removed) != len(source) or len({(u, v) for u, v, _ in removed}) != len(removed):
        return (f"{kept} kept + {len(removed)} removed edges do not partition "
                f"{len(source)} input edges")
    if report.edges_after != kept:
        return f"report says {report.edges_after} edges after, graph has {kept}"
    if tri_count != len(triangles):
        return f"count_triangles {tri_count} != {len(triangles)} enumerated"
    try:
        sizes = bc.parse_scc2020(io.StringIO(scc_text)).sizes()
    except ValueError as exc:
        return f"scc2020 output does not parse: {exc}"
    if sizes != (tri_count, kept, collapsed.n):
        return f"scc2020 block sizes {sizes} != {(tri_count, kept, collapsed.n)}"
    return "ok"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one bicollapse pipeline run")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("points", "edges"), required=True)
    p.add_argument("--clouds", type=int, default=1, help="equal-size point clouds in the input")
    p.add_argument("--order", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--out", type=Path, required=True, help="directory for the scc2020 files")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--corrupt", choices=("none", "scc-line", "removal"), default="none")
    args = p.parse_args(argv)
    trace = Trace(args.trace)

    if args.trace:
        from unittest import mock  # noqa: F401  (its 50 ms import lands in run.import_s)
    sys.path.insert(0, str(SRC))
    import bicollapse as bc

    if Path(bc.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported bicollapse from {bc.__file__}, not from {SRC}")
    t_import = time.perf_counter()
    graphs = build_graphs(bc, args, trace)
    t_setup = time.perf_counter()
    rss_setup = max_rss_mb()
    results = collapse_all(bc, graphs, args, trace)
    t_collapse = time.perf_counter()
    rss_collapse = max_rss_mb()
    paths = [args.out / f"cloud{i}.scc" for i in range(len(graphs))]
    expanded = [expand(bc, c, path, trace) for (c, _), path in zip(results, paths)]
    t_end = time.perf_counter()
    rss_end = max_rss_mb()

    reports = [r for _, r in results]
    if args.corrupt == "scc-line":
        lines = paths[0].read_text().splitlines(keepends=True)
        paths[0].write_text("".join(lines[:-1]))
    elif args.corrupt == "removal":
        reports[0].removal_log[0].pop(len(reports[0].removal_log[0]) // 2)
    scc = [path.read_bytes() for path in paths]
    verdicts = [
        check(bc, g, c, r, triangles, tri_count, text.decode())
        for g, (c, r), (tri_count, triangles), text in zip(graphs, results, expanded, scc)
    ]
    verdict = next((f"cloud {i}: {v}" for i, v in enumerate(verdicts) if v != "ok"), "ok")

    edges_before = sum(r.edges_before for r in reports)
    removed = sum(r.removed_total for r in reports)
    triangles_after = sum(tri_count for tri_count, _ in expanded)
    metrics = {
        "total_s": t_end - T0,
        "setup_s": t_setup - T0,
        "collapse_s": t_collapse - t_setup,
        "export_s": t_end - t_collapse,
        "peak_rss_mb": rss_end,
        "removed_fraction": removed / edges_before,
        "output_simplices": sum(g.n for g in graphs) + edges_before - removed + triangles_after,
    }
    if trace.on:
        sec, calls, counted = trace.seconds, trace.calls, trace.counted
        pass_s = sum(sum(r.wall_time_per_iteration) for r in reports)
        examined = counted["orders.sort_edges"]
        full_calls = calls["domination.full"]
        metrics.update({
            "run.import_s": t_import - T0,
            "build.load_points_s": sec["build.load_points"],
            "build.pairwise_distances_s": sec["build.pairwise_distances"],
            "build.kde_s": sec["build.kde"],
            "build.density_rips_graph_s": sec["build.density_rips_graph"],
            "build.rss_mb": rss_setup if args.kind == "points" else 0.0,
            "core.read_edge_list_s": sec["core.read_edge_list"],
            "core.copy_s": sec["core.copy"],
            "core.edge_list_s": sec["core.edge_list"],
            "orders.sort_edges_s": sec["orders.sort_edges"],
            "collapse.prep_s": sec["collapse.collapse_iterated"] - pass_s,
            "collapse.pass_s": pass_s,
            "collapse.pass_self_s": pass_s - sec["domination.strong"] - sec["domination.full"],
            "collapse.edges_examined": examined,
            "collapse.removed": removed,
            "collapse.hit_ratio": removed / examined if examined else 0.0,
            "collapse.rss_mb": rss_collapse,
            "domination.strong_calls": calls["domination.strong"],
            "domination.strong_hits": counted["domination.strong"],
            "domination.strong_s": sec["domination.strong"],
            "domination.full_calls": full_calls,
            "domination.full_hits": counted["domination.full"],
            "domination.full_hit_ratio": counted["domination.full"] / full_calls if full_calls else 0.0,
            "domination.full_s": sec["domination.full"],
            "expand.count_triangles_s": sec["expand.count_triangles"],
            "expand.enumerate_triangles_s": sec["expand.enumerate_triangles"],
            "expand.export_scc2020_s": sec["expand.export_scc2020"],
            "expand.triangles": triangles_after,
            "expand.scc_bytes": sum(len(text) for text in scc),
            "expand.rss_mb": rss_end,
        })
        spans = ("build.", "core.read_edge_list", "collapse.collapse_iterated", "expand.")
        covered = sum(s for name, s in sec.items() if name.startswith(spans))
        metrics["trace.uncovered_s"] = metrics["total_s"] - metrics["run.import_s"] - covered
    scc_hash = hashlib.sha256()
    for text in scc:
        scc_hash.update(text)
    result = {
        "check": verdict,
        "metrics": metrics,
        "removal_sha256": hashlib.sha256("\n".join(removal_lines(reports)).encode()).hexdigest(),
        "scc_sha256": scc_hash.hexdigest(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line surface: reproducible collapse, benchmark, export, and verify runs.

Exit codes: 0 success, 1 verification failure, 2 unreadable input,
3 simplex budget exceeded or out of memory, 64 usage error, 73 output not
writable.  Every report embeds the version, the full flag configuration,
and the seed, so a report can be replayed exactly (timings and memory
excepted).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import math
import os
import resource
import sys
import tempfile
import time
from io import StringIO
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .build import (
    DATASET_KINDS,
    _condensed,
    _condensed_kde,
    _density_rips,
    generate_dataset,
    kde_bandwidth,
    load_lower_distance_matrix,
    load_points,
    pairwise_distances,
)
from .collapse import GRADE_MODES, MODES, CollapseReport, apply_grade_mode, collapse_iterated
from .core import BifilteredGraph, _numbers, read_edge_list, write_edge_list
from .domination import _DenseStrongEngine, is_filtration_dominated, is_strongly_dominated
from .expand import count_triangles, enumerate_triangles, export_scc2020
from .oracle import (
    SimplexBudgetExceeded,
    brute_force_filtration_dominated,
    brute_force_strong_dominator,
    random_grid_graph,
    verify_collapse,
)
from .orders import ORDER_KINDS, EdgeOrder

DEFAULT_MAX_SIMPLICES = 5_000_000


class InputError(Exception):
    """Input file missing, unreadable, or malformed."""


class OutputError(Exception):
    """Output file cannot be written."""


class _Parser(argparse.ArgumentParser):
    # Usage errors exit with the conventional EX_USAGE code instead of 2,
    # which this tool reserves for unreadable input.
    def error(self, message: str):  # noqa: ANN201 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# -- small helpers ----------------------------------------------------------------


def _checked(kind: str, ok, expected: str):
    """An argparse type: text read by the number grammar as one token of
    kind 'i' or 'f' (core._numbers), refused (exit 64) unless ``ok`` holds."""

    def parse(text: str):
        try:
            [value] = _numbers(text, kind, "")
            if ok(value):  # the comparisons in ok are false for NaN
                return value.item() if kind == "f" else value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_count = _checked("i", lambda v: True, "a non-negative integer")
_positive_int = _checked("i", lambda v: v >= 1, "a positive integer")
_fraction = _checked("f", lambda v: 0.0 <= v <= 1.0, "a fraction in [0, 1]")
_noise_level = _checked("f", lambda v: 0.0 <= v < math.inf, "a finite non-negative number")


@contextlib.contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """Turn an OSError into an OutputError that names the path and the reason."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _atomic_write(path: str | Path, write: Callable[[IO[str]], object]) -> None:
    """Call write on a temp file in the target directory, then rename the file
    into place; on any error the temp file is removed and path left untouched."""
    target, tmp = Path(path), None
    with _writing(path):
        try:
            fd, tmp = tempfile.mkstemp(dir=str(target.parent), prefix=f".{target.name}.")
            with os.fdopen(fd, "w") as fh:
                write(fh)
            os.replace(tmp, target)
        except BaseException:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            raise


def _check_output(path: str | Path) -> None:
    """Refuse, before any work, an output _atomic_write would fail on: its
    temp file is made and removed, and a directory at path refused as the
    rename would refuse it.  path itself is neither created nor truncated."""
    target = Path(path)
    with _writing(path):
        fd, tmp = tempfile.mkstemp(dir=str(target.parent), prefix=f".{target.name}.")
        os.close(fd)
        os.unlink(tmp)
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))


def _peak_rss_mb() -> str:
    # ru_maxrss is in KiB on Linux; approximate and labeled as such.
    return f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}"


def _ms_since(start: float) -> str:
    return f"{1000.0 * (time.perf_counter() - start):.1f}"


def _graph_from_condensed(condensed: np.ndarray, n: int) -> BifilteredGraph:
    # The bandwidth, the densities and the graph read the condensed distances.
    return _density_rips(condensed, _condensed_kde(condensed, n, kde_bandwidth(condensed)))


def _graph_from_points(points: np.ndarray) -> BifilteredGraph:
    return _graph_from_condensed(pairwise_distances(points), len(points))


def _input_graph(args: argparse.Namespace) -> tuple[BifilteredGraph, str]:
    """The run's input graph after ``--grade-mode``, and its source label for reports."""
    try:
        if args.edges:
            graph, source = read_edge_list(args.edges), f"edges:{args.edges}"
        elif args.points:
            graph, source = _graph_from_points(load_points(args.points)), f"points:{args.points}"
        elif args.distances:
            dist = load_lower_distance_matrix(args.distances)
            graph = _graph_from_condensed(_condensed(dist), len(dist))
            source = f"distances:{args.distances}"
        else:
            points = generate_dataset(args.dataset, args.n, seed=args.seed)
            graph, source = _graph_from_points(points), f"{args.dataset}:n={args.n}"
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    return apply_grade_mode(graph, args.grade_mode, seed=args.seed), source


def _collapse(
    graph: BifilteredGraph, args: argparse.Namespace, kind: str
) -> tuple[BifilteredGraph, CollapseReport, str]:
    """The run's one ``collapse_iterated`` call in order ``kind``, and its wall time in ms."""
    order = EdgeOrder(kind, seed=args.seed)  # the seed is read by the random kind only
    start = time.perf_counter()
    collapsed, report = collapse_iterated(graph, order, mode=args.mode, iterations=args.iterations)
    return collapsed, report, _ms_since(start)


def _render_report(command: str, args: argparse.Namespace, rows: list[dict]) -> str:
    """The report: metadata lines, then one table whose header is the rows' keys."""
    config = " ".join(
        f"{key.replace('_', '-')}={value}"
        for key, value in sorted(vars(args).items())
        if key not in {"func", "format", "_parser"} and value is not None
    )
    meta = [
        ("tool", f"bicollapse {__version__}"),
        ("command", command),
        ("config", config),
        ("seed", str(args.seed)),
    ]
    header = list(rows[0])
    out = StringIO()
    if args.format == "csv":
        for key, value in meta:
            out.write(f"# {key}: {value}\n")
        csv.writer(out, lineterminator="\n").writerows([header, *(r.values() for r in rows)])
    else:
        for key, value in meta:
            out.write(f"{key}: {value}\n")
        out.write("\n| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join(" --- " for _ in header) + "|\n")
        for row in rows:
            cells = (str(c).replace("|", "\\|") for c in row.values())
            out.write("| " + " | ".join(cells) + " |\n")
    return out.getvalue()


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.2f}"


# -- subcommands ------------------------------------------------------------------


def cmd_collapse(args: argparse.Namespace) -> int:
    graph, source = _input_graph(args)
    collapsed, report, time_ms = _collapse(graph, args, args.order)
    if args.output:
        _atomic_write(args.output, lambda fh: write_edge_list(collapsed, fh))
    row = {
        "source": source,
        "edges_before": report.edges_before,
        "edges_after": report.edges_after,
        "removed_pct": _pct(report.removed_fraction),
        "iterations_run": len(report.removed_per_iteration),
        "time_ms": time_ms,
        "peak_rss_mb_approx": _peak_rss_mb(),
    }
    print(_render_report("collapse", args, [row]), end="")
    return 0


def cmd_bench_orders(args: argparse.Namespace) -> int:
    graph, source = _input_graph(args)
    rows = []
    for kind in ORDER_KINDS:
        _, report, time_ms = _collapse(graph, args, kind)
        rows.append(
            {
                "order": kind,
                "source": source,
                "edges_before": report.edges_before,
                "edges_after": report.edges_after,
                "removed_pct": _pct(report.removed_fraction),
                "time_ms": time_ms,
            }
        )
    text = _render_report("bench-orders", args, rows)
    if args.output:
        _atomic_write(args.output, lambda fh: fh.write(text))
    else:
        print(text, end="")
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    graph, source = _input_graph(args)
    edges_before = graph.edge_count()
    triangles_before = count_triangles(graph)
    start = time.perf_counter()
    collapsed = graph if args.no_collapse else _collapse(graph, args, args.order)[0]
    triangles_after = count_triangles(collapsed)
    total = collapsed.n + collapsed.edge_count() + triangles_after
    if total > args.max_simplices:
        raise SimplexBudgetExceeded(total, args.max_simplices)
    triangles = enumerate_triangles(collapsed)
    try:  # export_scc2020 checks everything before it writes a byte
        _atomic_write(args.output, lambda fh: export_scc2020(collapsed, triangles, fh))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    time_ms = _ms_since(start)
    row = {
        "source": source,
        "edges_before": edges_before,
        "triangles_before": triangles_before,
        "edges_after": collapsed.edge_count(),
        "triangles_after": triangles_after,
        "time_ms": time_ms,
        "peak_rss_mb_approx": _peak_rss_mb(),
    }
    print(_render_report("expand", args, [row]), end="")
    return 0


def _check_domination(graph: BifilteredGraph, i: int, seed: int) -> Iterator[str | None]:
    """Per edge: the (full, strong) answers of both forms against the two references."""
    engine = _DenseStrongEngine(graph)
    for e in graph.edge_list():
        fast = is_filtration_dominated(graph, e)
        fast_dense = is_filtration_dominated(graph, e, engine)
        slow = brute_force_filtration_dominated(graph, e)
        strong = is_strongly_dominated(graph, e)
        dense = is_strongly_dominated(graph, e, engine)
        strong_oracle = brute_force_strong_dominator(graph, e)
        agree = fast == fast_dense == slow and strong == dense == strong_oracle
        yield None if agree else (
            f"domination mismatch on edge ({e.u}, {e.v}) of instance {i}: "
            f"fast={fast} fast_dense={fast_dense} oracle={slow} strong={strong} dense={dense} "
            f"strong_oracle={strong_oracle}"
        )


def _check_homology(graph: BifilteredGraph, i: int, seed: int) -> Iterator[str | None]:
    """Per mode and order: the grid barcodes after two passes against the original's."""
    for mode in MODES:
        for kind in ORDER_KINDS:
            order = EdgeOrder(kind, seed=seed)
            collapsed, _ = collapse_iterated(graph, order, mode=mode, iterations=2)
            result = verify_collapse(graph, collapsed)
            yield None if result.ok else (
                f"homology mismatch on instance {i} (mode={mode}, order={kind}): {result.detail}"
            )


# --oracle -> (check, k, unit): instance i has 4 + i % k vertices, and the check
# yields one verdict per unit, None or the first mismatch's message.
_ORACLES = {
    "domination": (_check_domination, 7, "edges checked"),
    "homology": (_check_homology, 5, "collapse runs"),
}


def cmd_verify(args: argparse.Namespace) -> int:
    check, sizes, unit = _ORACLES[args.oracle]
    rng = np.random.default_rng(args.seed)
    units = 0
    for i in range(args.instances):
        graph = random_grid_graph(4 + i % sizes, (0.3, 0.5, 0.8)[i % 3], rng)
        for mismatch in check(graph, i, args.seed):
            if mismatch is not None:  # write the failing graph for replay, and name it
                path = args.output or "counterexample_edges.txt"
                try:
                    _atomic_write(path, lambda fh: write_edge_list(graph, fh))
                    where = f"graph written to {path}"
                except OutputError as exc:
                    where = f"graph not written: {exc}"
                print(f"{mismatch}; {where}", file=sys.stderr)
                return 1
            units += 1
    print(f"{args.oracle} oracle: {args.instances} instances, {units} {unit}, 0 mismatches")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        points = generate_dataset(
            args.dataset, args.n, args.seed, noise=args.noise, outliers=args.outliers
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    lines = (",".join(repr(float(c)) for c in row) + "\n" for row in points)
    _atomic_write(args.output, lambda fh: fh.writelines(lines))
    print(f"wrote {len(points)} {args.dataset} points (seed={args.seed}) to {args.output}")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bicollapse", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"bicollapse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_count, default=0, help="seed recorded in every report")
    common.add_argument("--output", help="output file (written atomically)")

    run = _Parser(add_help=False)
    run.add_argument("--format", choices=("csv", "markdown"), default="csv")
    run.add_argument("--mode", choices=MODES, default="strong")
    run.add_argument("--iterations", type=_positive_int, default=1)
    run.add_argument("--grade-mode", choices=GRADE_MODES, default="original")

    inputs = _Parser(add_help=False)
    group = inputs.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", help="point cloud file, one 2D/3D point per line")
    group.add_argument("--distances", help="lower-distance-matrix file")
    group.add_argument("--edges", help="graded edge-list file")
    group.add_argument("--dataset", choices=DATASET_KINDS, help="generated dataset (needs --n)")
    inputs.add_argument("--n", type=_count, help="point count for --dataset")

    p = sub.add_parser("collapse", parents=[common, run, inputs], help="remove dominated edges")
    p.add_argument("--order", choices=ORDER_KINDS, default="revlex")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser(
        "bench-orders", parents=[common, run, inputs], help="compare all edge orders"
    )
    p.set_defaults(func=cmd_bench_orders)

    p = sub.add_parser(
        "expand", parents=[common, run, inputs], help="export the clique bifiltration (scc2020)"
    )
    p.add_argument("--order", choices=ORDER_KINDS, default="revlex")
    p.add_argument("--no-collapse", action="store_true", help="export without preprocessing")
    p.add_argument("--max-simplices", type=_positive_int, default=DEFAULT_MAX_SIMPLICES)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", parents=[common], help="run a brute-force oracle suite")
    p.add_argument("--oracle", choices=tuple(_ORACLES), required=True)
    p.add_argument("--instances", type=_positive_int, default=100)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", parents=[common], help="write a synthetic point cloud")
    p.add_argument("--dataset", choices=DATASET_KINDS, required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--noise", type=_noise_level, default=0.0, help="gaussian noise for circle")
    p.add_argument("--outliers", type=_fraction, default=0.1, help="outlier fraction for sphere")
    p.set_defaults(func=cmd_generate)

    for sp in sub.choices.values():
        sp.set_defaults(_parser=sp)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dataset", None) and getattr(args, "n", None) is None:
        args._parser.error("--dataset requires --n")
    if getattr(args, "n", None) is not None and not getattr(args, "dataset", None):
        args._parser.error("--n requires --dataset")
    if args.command in ("expand", "generate") and not args.output:
        args._parser.error(f"{args.command} requires --output")
    try:
        if args.output and args.command != "verify":  # verify writes only on failure
            _check_output(args.output)
        return args.func(args)
    except InputError as exc:
        print(f"bicollapse: input error: {exc}", file=sys.stderr)
        return 2
    except SimplexBudgetExceeded as exc:
        print(f"bicollapse: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"bicollapse: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"bicollapse: {exc}", file=sys.stderr)
        return 73


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the bicollapse expand pipeline: point cloud or edge list in, scc2020 out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/ directory, and the benchmark exits with code 2 when that is missing.
The input is generated from the seed by gen.py in its own process and cached
under perfbench/.cache/.  Then one run after another (a closed loop, one
client, one run at a time) executes pipeline.py in a fresh process, until
the next run would end after S seconds; at least one run is made.  A run
that crashes, takes over TIME_LIMIT seconds or fails the output check
counts as failed.  For the default seed the removal sequence and the
scc2020 text must also hash to the values in expected.json; every seed
prints its hashes, so two commits can be compared on a fresh seed.  Child
BLAS/OpenMP pools get as many threads as this process has CPUs (printed as
`threads`).

--trace 0 reports the end-to-end metrics, each the median over the runs
that passed.  --trace 1 alternates traced and untraced runs and reports the
per-layer metrics, medians over the traced runs that passed, with
trace.overhead_s the traced minus the untraced median of total_s.  S
defaults to run_seconds in BENCHMARK.json.  Human-readable lines come first;
the last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
DEFAULT_SEED = 1
TIME_LIMIT = 60.0  # seconds; a run that takes longer counts as failed


@dataclass(frozen=True)
class Workload:
    gen: tuple[str, ...]  # gen.py arguments besides --seed and --out
    kind: str  # pipeline input: points or edges
    order: str
    mode: str
    clouds: int = 1  # equal-size point clouds per input file


# Why each workload was chosen is in BENCHMARK.json.  The full-mode workload runs
# 40 small clouds because the cost of one 30- to 60-point cloud varies 2x by seed.
WORKLOADS = {
    "torus400-revlex-strong": Workload(
        ("--kind", "torus", "--n", "400"), "points", "revlex", "strong",
    ),
    "torus30x40-lex-full": Workload(
        ("--kind", "torus", "--n", "1200"), "points", "lex", "full", clouds=40,
    ),
    "sparse3000-revlex-strong": Workload(
        ("--kind", "sparse", "--n", "3000", "--edges", "60000"), "edges", "revlex", "strong",
    ),
}

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "collapse_s": "s",
    "export_s": "s",
    "peak_rss_mb": "MB",
    "removed_fraction": "fraction",
    "output_simplices": "count",
}

PER_LAYER = {
    "run.import_s": "s",
    "build.load_points_s": "s",
    "build.pairwise_distances_s": "s",
    "build.kde_s": "s",
    "build.density_rips_graph_s": "s",
    "build.rss_mb": "MB",
    "core.read_edge_list_s": "s",
    "core.copy_s": "s",
    "core.edge_list_s": "s",
    "orders.sort_edges_s": "s",
    "collapse.prep_s": "s",
    "collapse.pass_s": "s",
    "collapse.pass_self_s": "s",
    "collapse.edges_examined": "count",
    "collapse.removed": "count",
    "collapse.hit_ratio": "fraction",
    "collapse.rss_mb": "MB",
    "domination.strong_calls": "count",
    "domination.strong_hits": "count",
    "domination.strong_s": "s",
    "domination.full_calls": "count",
    "domination.full_hits": "count",
    "domination.full_hit_ratio": "fraction",
    "domination.full_s": "s",
    "expand.count_triangles_s": "s",
    "expand.enumerate_triangles_s": "s",
    "expand.export_scc2020_s": "s",
    "expand.triangles": "count",
    "expand.scc_bytes": "bytes",
    "expand.rss_mb": "MB",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}


def thread_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment for every child: BLAS/OpenMP pools capped at the CPUs we may use."""
    env = dict(os.environ)
    threads = str(thread_count())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def ensure_input(name: str, workload: Workload, seed: int) -> Path:
    """Generate the workload's input for this seed once; later runs reuse the file.

    The file name holds a hash of the generator's arguments and source, so a
    resized workload or an edited gen.py never reuses a stale file.
    """
    CACHE.mkdir(exist_ok=True)
    key = hashlib.sha256(json.dumps(workload.gen).encode() + (HERE / "gen.py").read_bytes())
    path = CACHE / f"{name}-seed{seed}-{key.hexdigest()[:12]}.txt"
    if not path.exists():
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), *workload.gen, "--seed", str(seed), "--out", str(path)],
            env=child_env(), check=True, timeout=120,
        )
    return path


def run_once(workload: Workload, input_path: Path, traced: bool, corrupt: str = "none",
             time_limit: float = TIME_LIMIT) -> dict:
    """One pipeline run in a fresh process: its JSON result, or {"check": why it failed}."""
    out = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE))
    cmd = [
        sys.executable, str(HERE / "pipeline.py"), "--input", str(input_path),
        "--kind", workload.kind, "--clouds", str(workload.clouds), "--order", workload.order,
        "--mode", workload.mode, "--out", str(out), "--corrupt", corrupt,
    ]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=time_limit
        )
    except subprocess.TimeoutExpired:
        return {"check": f"timed out after {time_limit:g} s"}
    finally:
        shutil.rmtree(out)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"check": f"exit code {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"check": f"no result line in the output: {proc.stdout[-200:]!r}"}


def verdict(result: dict, expected: dict | None) -> str:
    """'ok', or why the run counts as failed."""
    if result["check"] != "ok" or expected is None:
        return result["check"]
    for key in ("removal_sha256", "scc_sha256"):
        if result[key] != expected[key]:
            return f"{key} {result[key][:12]} differs from the recorded {expected[key][:12]}"
    return "ok"


def expected_hashes(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "expected.json").read_text())["workloads"].get(name)


def measure(workload: Workload, input_path: Path, seconds: float, trace: bool,
            expected: dict | None, log=print) -> list[dict]:
    """Runs until the next one would end after `seconds`; traced runs alternate with untraced."""
    runs: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(runs) % 2 == 0
        t = time.perf_counter()
        result = run_once(workload, input_path, traced)
        longest = max(longest, time.perf_counter() - t)
        result["traced"] = traced
        result["verdict"] = verdict(result, expected)
        runs.append(result)
        total = result.get("metrics", {}).get("total_s")
        log(f"run {len(runs)}{' traced' if traced else ''}: {result['verdict']}"
            + (f", total_s {total:.4f}" if total is not None else "")
            + (f", removal_sha256 {result['removal_sha256']}, scc_sha256 {result['scc_sha256']}"
               if "scc_sha256" in result else ""))
        enough = len(runs) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + longest > seconds:
            return runs


def medians(runs: list[dict], names: dict[str, str]) -> dict[str, dict]:
    out = {}
    for name, unit in names.items():
        values = [r["metrics"][name] for r in runs if name in r.get("metrics", {})]
        if values:
            out[name] = {"value": statistics.median(values), "unit": unit,
                         "min": min(values), "max": max(values), "n": len(values)}
    return out


def summarize(runs: list[dict], trace: bool) -> dict:
    """Medians over the runs that passed; the failed ones are only counted."""
    failed = sum(r["verdict"] != "ok" for r in runs)
    passed = [r for r in runs if r["verdict"] == "ok"]
    plain = [r for r in passed if not r["traced"]]
    if not trace:
        metrics = medians(plain, END_TO_END)
    else:
        traced = [r for r in passed if r["traced"]]
        metrics = medians(traced, PER_LAYER)
        totals = medians(traced, {"total_s": "s"}), medians(plain, {"total_s": "s"})
        if all(totals):
            overhead = totals[0]["total_s"]["value"] - totals[1]["total_s"]["value"]
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "n": 1}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "bicollapse" / "__init__.py").is_file():
        print(f"no bicollapse sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    seconds = run_seconds() if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload]
    input_path = ensure_input(args.workload, workload, args.seed)
    compileall.compile_dir(ROOT / "src", quiet=1)  # imports are timed; users run with warm bytecode
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"threads {thread_count()} python {sys.version.split()[0]}")
    runs = measure(workload, input_path, seconds, bool(args.trace),
                   expected_hashes(args.workload, args.seed))
    summary = summarize(runs, bool(args.trace))
    for name, m in summary["metrics"].items():
        spread = f"  min {m['min']:.6g}  max {m['max']:.6g}" if "min" in m else ""
        print(f"{name:30s} {m['value']:.6g} {m['unit']}  (n={m['n']}){spread}")
    print(f"{'failed_fraction':30s} {summary['failed'] / summary['attempted']:.6g} fraction"
          f"  ({summary['failed']} of {summary['attempted']} runs)")
    summary["metrics"] = {
        name: {"value": m["value"], "unit": m["unit"]} for name, m in summary["metrics"].items()
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

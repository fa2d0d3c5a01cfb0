"""Run every workload on two sets of seeds and check that the two sets agree.

    python3 perfbench/sweep.py --seeds 201-220 --out perfbench/baseline.json

The seeds split into two equal sets, run one after the other.  For each
workload: one `run.py --trace 0` per seed, then one `run.py --trace 1` at the
default seed for the per-layer table.  Per set and end-to-end metric it
records the values, their median, their quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median; per metric it records
how much worse the second median is than the first, as a share of the first.
The benchmark is steady when every spread (setup_s excepted) and every such
difference stays within the metric's bound in BENCHMARK.json; the last line
says whether it is.  The file also holds the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy

    cpu = next((ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    return {
        "cpu": cpu, "cpus": os.cpu_count(), "threads_per_run": run.thread_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
    }


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": values}


def sweep_set(name: str, seeds: list[int]) -> dict:
    results = [bench(name, seed, 0) for seed in seeds]
    return {
        "seeds": seeds,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {
            metric: spread([r["metrics"][metric]["value"] for r in results])
            for metric in run.END_TO_END
        },
    }


def worsening(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`; negative if better."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("101-120"),
                   help="an even count; the first half is set 1, the second half set 2")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    half = len(args.seeds) // 2
    if half < 2 or 2 * half != len(args.seeds):
        p.error("--seeds must give an even count of at least 4")
    spec = {m["name"]: m for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    report = {"date": time.strftime("%Y-%m-%d"), "machine": machine(), "seconds": run.run_seconds(),
              "workloads": {}}
    steady = True
    for name in run.WORKLOADS:
        sets = [sweep_set(name, args.seeds[:half]), sweep_set(name, args.seeds[half:])]
        traced = bench(name, run.DEFAULT_SEED, 1)
        checks = {}
        for metric, m in spec.items():
            first, second = (s["end_to_end"][metric] for s in sets)
            worse = worsening(first["median"], second["median"], m["better"])
            widest = max(first["iqr_share"], second["iqr_share"])
            ok = worse <= m["bound"] and (metric == "setup_s" or widest <= m["bound"])
            steady &= ok and not any(s["failed"] for s in sets)
            checks[metric] = {"unit": m["unit"], "bound": m["bound"], "widest_iqr_share": widest,
                              "second_median_worse_by": worse, "within_bound": ok}
        report["workloads"][name] = {"sets": sets, "agreement": checks,
                                     "per_layer_at_default_seed": traced["metrics"]}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, w in report["workloads"].items():
        failed = sum(s["failed"] for s in w["sets"])
        print(f"{name}: {failed} of {sum(s['attempted'] for s in w['sets'])} runs failed")
        for metric, c in w["agreement"].items():
            medians = " / ".join(f"{s['end_to_end'][metric]['median']:.6g}" for s in w["sets"])
            print(f"  {metric:18s} medians {medians} {c['unit']}  widest quartile spread "
                  f"{100 * c['widest_iqr_share']:.2f} %  second worse by "
                  f"{100 * c['second_median_worse_by']:.2f} %  bound {100 * c['bound']:.0f} %"
                  f"{'' if c['within_bound'] else '  OUT OF BOUND'}")
    print("steady: every spread and difference within its bound" if steady
          else "not steady: see OUT OF BOUND above")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())

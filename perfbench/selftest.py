"""Self-test of the benchmark on tiny inputs; exits 0 when every check passes.

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric is printed with its unit
(and matches BENCHMARK.json when that file is present), and that a run
counts as failed when its output is corrupted (one scc2020 line dropped,
one removal skipped), when a recorded hash differs, or when it exceeds its
time limit: the mutation controls for the output check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "tiny-torus-full": run.Workload(
        ("--kind", "torus", "--n", "24"), "points", "lex", "full", clouds=2,
    ),
    "tiny-sparse-strong": run.Workload(
        ("--kind", "sparse", "--n", "60", "--edges", "300"), "edges", "revlex", "strong",
    ),
}


def main_output(name: str, trace: int) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    if code != 0:
        raise AssertionError(f"run.main exited {code}")
    return lines, json.loads(lines[-1])


def checks():
    bench = run.ROOT / "BENCHMARK.json"
    if bench.exists():
        spec = json.loads(bench.read_text())
        yield ("BENCHMARK.json end_to_end matches",
               {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END)
        yield ("BENCHMARK.json per_layer matches",
               {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER)
        yield ("BENCHMARK.json workloads match",
               [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))

    run.WORKLOADS.update(TINY)
    for name in TINY:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            lines, result = main_output(name, trace)
            yield (f"{name} trace {trace}: result keys",
                   sorted(result) == ["attempted", "correct", "failed", "metrics"])
            yield f"{name} trace {trace}: all runs pass", result["correct"] and result["failed"] == 0
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            yield f"{name} trace {trace}: every metric with its unit", printed == names
            yield (f"{name} trace {trace}: human-readable lines name every metric",
                   all(any(line.split()[:1] == [k] for line in lines) for k in names))

    workload = TINY["tiny-torus-full"]
    path = run.ensure_input("tiny-torus-full", workload, 3)
    clean = run.run_once(workload, path, traced=False)
    yield "clean run passes", run.verdict(clean, None) == "ok"
    expected = {k: clean[k] for k in ("removal_sha256", "scc_sha256")}
    yield "clean run matches its own hashes", run.verdict(clean, expected) == "ok"
    wrong = dict(expected, scc_sha256="0" * 64)
    yield "hash mismatch fails the run", run.verdict(clean, wrong) != "ok"
    for corrupt in ("scc-line", "removal"):
        bad = run.run_once(workload, path, traced=False, corrupt=corrupt)
        yield f"corrupt {corrupt} fails the run", run.verdict(bad, None) != "ok"
    slow = run.run_once(workload, path, traced=False, time_limit=0.05)
    yield "timeout fails the run", "timed out" in run.verdict(slow, None)
    bad = dict(slow, traced=False, verdict="timed out", metrics={"total_s": 99.0})
    good = dict(clean, traced=False, verdict="ok")
    summary = run.summarize([good, bad], trace=False)
    yield ("a failed run is counted but not measured",
           summary["failed"] == 1 and summary["metrics"]["total_s"]["value"] == clean["metrics"]["total_s"])
    resized = run.Workload(("--kind", "torus", "--n", "25"), "points", "lex", "full")
    yield "a resized workload gets its own input file", run.ensure_input("tiny-torus-full", resized, 3) != path


def main() -> int:
    failed = 0
    for label, ok in checks():
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        failed += not ok
    print(f"{failed} check(s) failed" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

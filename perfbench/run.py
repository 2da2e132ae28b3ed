#!/usr/bin/env python3
"""stereoedit benchmark.

    python3 perfbench/run.py --workload synth-1w --seed 1 --seconds 12 --trace 0

Workloads: synth-1w, synth-2w, eval, roundtrip (see perfbench/NOTES.md).

--trace 0 sets the workload up three times, runs ops for --seconds and prints
the end-to-end metrics. --trace 1 spends half of --seconds on an untraced run
in this process and half on a traced run in a fresh child process, so the
tracer's patches never touch an untraced measurement, and prints the
per-layer metrics. Either way the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The earlier lines record the
environment and a readable table.

Exits 2, printing no result, when the stereoedit sources are missing.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK_ROOT = REPO / ".perfbench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("synth-1w", "synth-2w", "eval", "roundtrip")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def layer_units() -> dict[str, str]:
    from tracer import layer_metrics
    return {**layer_metrics(),
            "pipeline.worker_cpu_share": "ratio",
            "trace.traced_over_untraced_ops": "ratio"}


def environment() -> dict:
    import numpy
    import scipy
    threads = {k: v for k, v in os.environ.items()
               if k.endswith(("_NUM_THREADS", "_MAX_THREADS"))}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "thread_env": threads,
        "machine": platform.machine(),
    }


def ops_per_s(result: dict) -> float:
    """Completed ops per second of timed wall time."""
    return sum(n for n, _, _ in result["calls"]) / result["timed_s"]


def cpu_ms_per_op(result: dict) -> float:
    """CPU ms (own plus reaped children, user plus system) per completed op."""
    return 1e3 * sum(cpu for _, _, cpu in result["calls"]) / max(
        1, sum(n for n, _, _ in result["calls"]))


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "ops_per_s": ops_per_s(result),
        "cpu_ms_per_op": cpu_ms_per_op(result),
        "peak_rss_mb": result["peak_rss_mib"],
        "setup_s": statistics.median(result["setup_s"]),
    }


def traced_child(args, work: Path) -> dict:
    """Run the traced half in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / 2),
           "--trace", "1", "--traced-child", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=REPO)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"traced run exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def report(result: dict, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Readable lines ahead of the JSON result."""
    calls = result["calls"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}: {len(calls)} timed calls over "
          f"{result['timed_s']:.2f} s, {attempted} {result['op_unit']} attempted, "
          f"{failed} failed")
    if result["problems"]:
        print("check failures:")
        for problem in result["problems"]:
            print(f"  {problem}")
    rates = [n / wall for n, wall, _ in calls if n]
    if rates:
        q = quartiles(rates)
        print(f"  rate of single timed calls (n={len(rates)}): median {q[1]:.4g}, "
              f"q1 {q[0]:.4g}, q3 {q[2]:.4g}, min {min(rates):.4g}, "
              f"max {max(rates):.4g} {result['op_unit']}/s")
    print(f"  setup_s of {len(result['setup_s'])} set-ups: "
          + ", ".join(f"{s:.3f}" for s in result["setup_s"]))
    # error_rate is 0 by design, and end-to-end metrics must be non-zero, so
    # it is reported here and, in the JSON, as "failed" over "attempted".
    print(f"  {'error_rate':<48} {failed / attempted:>12.6g} ratio")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>12.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.traced_child:
        work = Path(args.traced_child)
        try:
            result = workloads.measure(args.workload, args.seed, args.seconds,
                                       work, traced=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(result))
        return 0

    print("env " + json.dumps(environment(), sort_keys=True))
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            result = workloads.measure(args.workload, args.seed,
                                       args.seconds / 2, work / "untraced")
            traced = traced_child(args, work / "traced")
            units = layer_units()
            metrics = {
                **traced["trace"],
                "pipeline.worker_cpu_share": result["worker_cpu_share"],
                "trace.traced_over_untraced_ops":
                    ops_per_s(traced) / ops_per_s(result),
            }
            results = (result, traced)
        else:
            result = workloads.measure(args.workload, args.seed, args.seconds,
                                       work, setup_repeats=SETUP_REPEATS)
            units = END_TO_END_UNITS
            metrics = end_to_end(result)
            results = (result,)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for r in results:
        report(r, metrics if r is results[-1] else {}, units)
    correct = not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""wbext benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload {replay,classify,solve_sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every workload run gets its own fresh
interpreter (``worker.py``); processes run one at a time, each with one
thread.  The seed alone makes the inputs (replay's fixed cases ignore it).

Times are seconds at a nominal machine speed (see ``calibrate.py``): the
machine this was built on drifts by up to 2x, and the raw figures are
printed on the summary line before the JSON.

--trace 0 measures the end-to-end metrics: set-up time, then units until S
seconds of unit time, with tracing off.

--trace 1 gives the per-layer metrics.  It runs a fixed, seeded prefix of
the workload three times in fresh interpreters: untraced, traced, traced.
The output checks must agree across all three, every count must repeat
exactly across the two traced runs, every wrapped binding the workload is
predicted to use must have been called, and every wrapper must have been
removed again; otherwise ``correct`` is false.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
# Fixed per workload so the tail names the same percentile on every run: the
# highest with at least ten samples beyond it in a 20 s run.  classify
# finishes fewer than eleven units, so its tail is the slowest unit, which is
# the cold first call paying the b-independent Virasoro layer
# (classify_cold_s).
TAIL_PERCENTILE = {"replay": 75, "classify": 100, "solve_sweep": 70}
# Prefix length of a traced run: enough to reach every predicted binding.
TRACE_UNITS = {"replay": 20, "classify": 3, "solve_sweep": 12}
# whole-run limit; the workers of a traced run share it
DEADLINE = time.monotonic() + 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _ready_seconds(code: str) -> float:
    """Time from starting a fresh interpreter until ``code`` prints the clock.

    The child prints the shared monotonic clock when done, so process exit
    and the wait for it stay outside the measurement.
    """
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=_env(), stdout=subprocess.PIPE,
                         text=True, check=True, timeout=60).stdout
    return float(out) - t0


def setup_seconds() -> tuple[float, float]:
    """(raw, calibrated) median time from a fresh interpreter to ``import wbext`` done.

    Each probe is paired with a bare interpreter start, and the calibrated
    figure is the median ratio of the two times the nominal bare start.  One
    unmeasured pair first writes the bytecode cache.
    """
    raw, ratios = [], []
    for i in range(SETUP_PROBES + 1):
        bare = _ready_seconds("import time; print(time.perf_counter())")
        probe = _ready_seconds("import time, wbext; print(time.perf_counter())")
        if i:
            raw.append(probe)
            ratios.append(probe / bare)
    return statistics.median(raw), statistics.median(ratios) * calibrate.NOMINAL_START_S


def worker(args, units: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--units", str(units), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, text=True,
                          check=True, timeout=max(1.0, DEADLINE - time.monotonic()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, pct):
    if pct == 100 or len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _failures(run) -> list:
    return [(i, note) for i, note in enumerate(run["notes"]) if note]


def end_to_end(args) -> tuple[bool, int, int, dict]:
    setup_raw, setup = setup_seconds()
    run = worker(args, units=0, trace=0)
    lat = run["latencies"]
    failed = _failures(run)
    pct = TAIL_PERCENTILE[args.workload]
    tail = _percentile(lat, pct)
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    cold = "classify_cold_s" if args.workload == "classify" else "first_unit_s"
    shown = dict(metrics, failed_ratio=(len(failed) / len(lat), "ratio"), **{cold: (lat[0], "s")})
    print(f"workload {args.workload}: " + ", ".join(f"{k} {v:.4f} {u}" for k, (v, u) in shown.items()))
    print(f"  {len(lat)} units, tail p{pct} with {sum(1 for x in lat if x > tail)} samples beyond it; "
          f"raw setup_s {setup_raw:.4f} s, raw latency_p50_s {statistics.median(run['raw_latencies']):.4f} s, "
          f"wall {run['wall_s']:.2f} s at {run['slowdown']:.3f}x nominal kernel time")
    for i, note in failed:
        print(f"unit {i} FAILED: {note}", file=sys.stderr)
    return not failed, len(lat), len(failed), metrics


def per_layer(args) -> tuple[bool, int, int, dict]:
    units = TRACE_UNITS[args.workload]
    plain = worker(args, units=units, trace=0)
    first = worker(args, units=units, trace=1)
    second = worker(args, units=units, trace=1)
    problems = []
    verdicts = [[bool(n) for n in r["notes"]] for r in (plain, first, second)]
    if verdicts[0] != verdicts[1] or verdicts[0] != verdicts[2]:
        problems.append(f"output checks differ between untraced and traced runs: {verdicts}")
    counts = [{k: v for k, (v, unit) in r["layers"].items() if unit != "s"} for r in (first, second)]
    if counts[0] != counts[1]:
        moved = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"counts differ between two traced runs: {moved}")
    for r in (first, second):
        if r["uncovered"]:
            problems.append(f"wrapped bindings never called: {r['uncovered']}")
        if not r["restored"]:
            problems.append("a wrapper was not restored")
    failed = _failures(first)
    traced_s, plain_s = sum(first["latencies"]), sum(plain["latencies"])
    overhead = traced_s / plain_s
    print(f"workload {args.workload}: traced {units} units, tracing overhead {overhead:.3f}x "
          f"({traced_s:.2f} s traced / {plain_s:.2f} s untraced, calibrated)")
    for p in problems:
        print(f"TRACE CHECK FAILED: {p}", file=sys.stderr)
    for i, note in failed:
        print(f"unit {i} FAILED: {note}", file=sys.stderr)
    # span seconds are scaled like unit times; counts are as recorded
    metrics = {
        name: (value / first["slowdown"] if unit == "s" else value, unit)
        for name, (value, unit) in first["layers"].items()
    }
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return not failed and not problems, len(first["latencies"]), len(failed), metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("replay", "classify", "solve_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "wbext" / "__init__.py").is_file():
        print(f"no wbext package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        correct, attempted, failed, metrics = (per_layer if args.trace else end_to_end)(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

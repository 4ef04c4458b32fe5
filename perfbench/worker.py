"""One workload run in a fresh interpreter; ``run.py`` starts it.

The package keeps process-global, unbounded caches, so every run gets its
own interpreter rather than a reset: the benchmark never touches that
private state.  Prints one JSON line with each unit's latency (calibrated
and raw) and failure note, the peak resident set and, when traced, the
per-layer metrics.

    python3 perfbench/worker.py --workload replay --seed 1 --seconds 20 --units 0 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import wbext  # noqa: E402

if Path(wbext.__file__).resolve().parent != SRC / "wbext":
    sys.exit(f"wbext was imported from {wbext.__file__}, not from {SRC}")

import calibrate  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# calibration samples on each side of a unit, besides those taken inside it
_MARGIN = 2
# a run on a machine this many times slower than nominal stops on wall time,
# so that a slow spell cannot stretch a run without limit
_WALL_CAP = 1.8


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.UNITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="stop starting units after this much calibrated unit time")
    ap.add_argument("--units", type=int, required=True, help="fixed unit count; 0 runs for --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    run, check = workloads.UNITS[args.workload]
    items = workloads.inputs(args.workload, args.seed)
    rec = spans.Recorder()
    if args.trace:
        layers.install(rec)
    raw, windows, notes = [], [], []
    work = 0.0
    clock = time.perf_counter
    start = clock()
    with calibrate.Sampler(on_tick=rec.pause) as sampler:
        sampler.samples.extend(calibrate.sample())
        for item in items:
            if args.units and len(raw) == args.units:
                break
            if not args.units and (work >= args.seconds or clock() - start >= _WALL_CAP * args.seconds):
                break
            first, stolen = len(sampler.samples), sampler.stolen
            rec.active = bool(args.trace)
            t0 = clock()
            try:
                out = run(item)
                note = None
            except Exception:  # a crashing unit is counted, not fatal
                note = traceback.format_exc(limit=4)
            raw.append(clock() - t0 - (sampler.stolen - stolen))
            rec.active = False
            if note is None:
                try:
                    note = check(item, out)
                except Exception:
                    note = traceback.format_exc(limit=4)
            notes.append(note)
            windows.append((max(0, first - _MARGIN), len(sampler.samples) + _MARGIN))
            work += raw[-1] / calibrate.slowdown(sampler.samples[windows[-1][0]:])
    sampler.samples.extend(calibrate.sample(_MARGIN))
    wall = clock() - start
    latencies = [t / calibrate.slowdown(sampler.samples[a:b]) for t, (a, b) in zip(raw, windows)]
    doc = {
        "latencies": latencies,
        "raw_latencies": raw,
        "notes": notes,
        "wall_s": wall,
        "slowdown": calibrate.slowdown(sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        doc["restored"] = rec.restore()
        values = layers.metrics(rec)
        doc["layers"] = {name: [values[name], unit] for name, unit, _ in layers.PER_LAYER}
        doc["uncovered"] = [b for b in layers.COVERAGE[args.workload] if not rec.binding_calls[b]]
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

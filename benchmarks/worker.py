"""One benchmark worker: a fresh interpreter that sets up and runs one workload.

Started by ``run.py``; prints one JSON report line on stdout.  Modes:

* ``setup``: import icsep, generate the inputs, report the set-up times;
* ``measure``: then run tasks for ``--seconds`` of task time, checking each;
* ``trace``: then run a fixed block of tasks, each once untraced and once
  traced, and write the spans to ``--spans``.

A single caller runs the tasks one after another (closed loop, no threads).
"""

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _run_task(wl, inp):
    """Time one task; its output is checked afterwards, outside the timing."""
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception:
        return time.perf_counter() - start, None, [traceback.format_exc()]
    return time.perf_counter() - start, out, None


def _peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _check(check, inp, out):
    try:
        return check(inp, out)
    except Exception:
        return [traceback.format_exc()]


def measure(wl, pool, seconds, sample_rng):
    times, failed, messages, passed = [], set(), [], {}
    while sum(times) < seconds:
        idx = len(times)
        inp = pool[idx % len(pool)]
        elapsed, out, problems = _run_task(wl, inp)
        times.append(elapsed)
        problems = problems or _check(wl.check, inp, out)
        if problems:
            failed.add(idx)
            messages.append((idx, problems))
        elif wl.slow_check:
            passed[idx] = out
    # before the slow checks, whose dense grids would set the high-water mark
    peak_rss_kb = _peak_rss_kb()
    sample = sorted(sample_rng.sample(sorted(passed), min(wl.slow_sample, len(passed))))
    for idx in sample:
        problems = _check(wl.slow_check, pool[idx % len(pool)], passed[idx])
        if problems:
            failed.add(idx)
            messages.append((idx, problems))
    return {
        "times_ms": [1e3 * t for t in times],
        "attempted": len(times),
        "failed": len(failed),
        "slow_checked": len(sample),
        "messages": messages,
        "peak_rss_kb": peak_rss_kb,
    }


def trace(wl, pool, spans_path):
    tracer = Tracer()
    plain, traced, failed, messages = [], [], 0, []
    for idx in range(wl.trace_tasks):
        inp = pool[idx % len(pool)]
        # alternate which run goes first, so drift does not bias the overhead ratio
        for with_trace in (False, True) if idx % 2 else (True, False):
            with tracer.task(idx) if with_trace else nullcontext():
                elapsed, out, problems = _run_task(wl, inp)
            (traced if with_trace else plain).append(elapsed)
            problems = problems or _check(wl.check, inp, out)
            if problems:
                failed += 1
                messages.append((idx, problems))
    tracer.write(spans_path)
    layers = tracer.summary(wl.trace_tasks)
    layers["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return {
        "times_ms": [1e3 * t for t in plain],
        "traced_times_ms": [1e3 * t for t in traced],
        "attempted": 2 * wl.trace_tasks,
        "failed": failed,
        "messages": messages,
        "layers": layers,
        "spans": len(tracer.spans),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    start = time.perf_counter()
    import icsep  # noqa: F401  (timed: the cold import users pay)

    import_icsep_s = time.perf_counter() - start
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    pool = wl.make_inputs(random.Random(f"{args.workload}:{args.seed}"))
    report = {
        "import_icsep_s": import_icsep_s,
        "inputs_s": time.perf_counter() - start,
        "ready_at": time.monotonic(),
    }
    if args.mode == "measure":
        report.update(measure(wl, pool, args.seconds, random.Random(f"sample:{args.seed}")))
    elif args.mode == "trace":
        report.update(trace(wl, pool, args.spans))
    report.setdefault("peak_rss_kb", _peak_rss_kb())
    print(json.dumps(report))


if __name__ == "__main__":
    main()

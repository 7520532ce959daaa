"""icsep benchmark: run one workload in fresh worker interpreters and report its metrics.

    python3 benchmarks/run.py --workload {exhibit,mac-bound,game} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Every input is generated from ``--seed``.  Each metric is
printed with its unit and sample count; the last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The full report, and the spans of a traced
run, go to ``.bench_out/``.  See README.md in this directory.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: fresh interpreters whose set-up time is measured, the measuring worker included;
#: one launch varies by about 12%, so the median of several is reported
SETUP_LAUNCHES = 5
#: fresh interpreters that import numpy alone: the floor for the cold import
FLOOR_LAUNCHES = 3
LAUNCH_TIMEOUT_S = 60

NUMPY_FLOOR = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"


class BenchError(RuntimeError):
    pass


def _python(argv, timeout):
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=timeout, cwd=ROOT
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with code {proc.returncode}")
    return proc.stdout.splitlines()[-1]


def launch_worker(argv, timeout=LAUNCH_TIMEOUT_S):
    """Start a fresh worker; its set-up time runs from launch until it is ready to time a task."""
    launched = time.monotonic()
    report = json.loads(_python([str(HERE / "worker.py"), *argv], timeout))
    report["setup_s"] = report["ready_at"] - launched
    return report


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(main, setups, floor):
    times = main["times_ms"]
    n = len(times)
    beyond_p90 = n - int(0.9 * n)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s",
                    f"median of {len(setups)} launches; numpy-only import floor "
                    f"{statistics.median(floor):.4f} s, in-process import icsep "
                    f"{statistics.median(r['import_icsep_s'] for r in setups):.4f} s"),
        "task_p50_ms": (statistics.median(times), "ms", f"n={n} tasks"),
        "task_p90_ms": (percentile(times, 90), "ms",
                        f"n={n} tasks, {beyond_p90} beyond p90"
                        + (" (fewer than 10: read with care)" if beyond_p90 < 10 else "")),
        "tasks_per_s": (n / (1e-3 * sum(times)), "1/s", f"n={n} tasks in {1e-3 * sum(times):.2f} s"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024.0, "MB", "n=1 worker (ru_maxrss)"),
    }


def per_layer(main, setups, floor):
    n = main["attempted"] // 2
    out = {name: (value, unit, f"n={n} traced tasks") for name, (value, unit) in main["layers"].items()}
    out["trace.overhead_ratio"] = (
        *main["layers"]["trace.overhead_ratio"],
        f"traced task_p50 {statistics.median(main['traced_times_ms']):.3f} ms over untraced "
        f"{statistics.median(main['times_ms']):.3f} ms, n={n} pairs",
    )
    out["setup.import_icsep_s"] = (
        statistics.median(r["import_icsep_s"] for r in setups), "s", f"median of {len(setups)} launches")
    out["setup.import_numpy_s"] = (statistics.median(floor), "s", f"median of {len(floor)} launches")
    out["setup.inputs_s"] = (
        statistics.median(r["inputs_s"] for r in setups), "s", f"median of {len(setups)} launches")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exhibit", "mac-bound", "game"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "icsep" / "__init__.py").is_file():
        raise BenchError(f"icsep sources not found under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # not measured: compiles the bytecode caches and warms the file cache
    launch_worker(common + ["--mode", "setup"])
    setups = [launch_worker(common + ["--mode", "setup"]) for _ in range(SETUP_LAUNCHES - 1)]
    floor = [float(_python(["-c", NUMPY_FLOOR], LAUNCH_TIMEOUT_S)) for _ in range(FLOOR_LAUNCHES)]
    if args.trace:
        spans_path = OUT / f"{stem}-spans.jsonl"
        main_run = launch_worker(common + ["--mode", "trace", "--spans", str(spans_path)], 120)
    else:
        main_run = launch_worker(
            common + ["--mode", "measure", "--seconds", str(args.seconds)], args.seconds + 120)
    setups.append(main_run)

    found = (per_layer if args.trace else end_to_end)(main_run, setups, floor)
    metrics = {}
    for m in wanted:
        value, unit, _ = found[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    attempted, failed = main_run["attempted"], main_run["failed"]
    for idx, problems in main_run["messages"][:5]:
        print(f"task {idx} failed: " + "; ".join(problems), file=sys.stderr)
    print(f"# icsep benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# one caller, closed loop, no threads: no layer has queueing or wait time")
    for name, (value, unit, note) in found.items():
        listed = "" if name in metrics else "  [not in BENCHMARK.json]"
        print(f"{name:58s} {value:14.6f} {unit:10s} {note}{listed}")
    print(f"{'fail_ratio':58s} {failed / attempted:14.6f} {'ratio':10s} "
          f"{failed} failed of {attempted} attempted tasks"
          + (f", {main_run['slow_checked']} also grid-checked" if main_run.get("slow_checked") else ""))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "result": result,
        "all_metrics": {k: {"value": v, "unit": u, "samples": note} for k, (v, u, note) in found.items()},
        "failures": main_run["messages"],
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        main()
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.exit(f"benchmark error: {exc}")

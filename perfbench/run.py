"""Benchmark of sdexit: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc_shipped, mc_long_horizon, controller_online (see README.md).
The run sets up the workload several times and reports the median set-up
time.  It repeats whole rounds of the workload's operations until --seconds
of wall-clock time have passed (at least one round, so a run measures at
least --seconds), then checks the outputs outside the timed section.  Times
are CPU time of this single-threaded process (workloads.CLOCK).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1, each with the unit BENCHMARK.json declares.  A
traced run alternates untraced and traced rounds; spans go to
perfbench/traces/.

The program is imported from src/ of the checkout holding this directory;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# One compute thread: set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from workloads import CLOCK, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK = HERE.parent / "BENCHMARK.json"
SETUP_REPEATS = 5


def import_program():
    """Fresh import of the sdexit package (module code runs again)."""
    for mod in [m for m in sys.modules if m == "sdexit" or m.startswith("sdexit.")]:
        del sys.modules[mod]
    return importlib.import_module("sdexit")


def set_up(make, seed: int, workdir: Path):
    """SETUP_REPEATS fresh set-ups (import, configs, inputs, warm-up); keeps the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        sdexit = import_program()
        workload = make(sdexit, seed, workdir)
        times.append(CLOCK() - t0)
    return sdexit, workload, statistics.median(times)


def percentile_us(latencies, q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sdexit" / "__init__.py").is_file():
        print(f"error: no sdexit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, make, workdir: Path) -> int:
    sdexit, workload, setup_s = set_up(make, args.seed, workdir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    untraced, traced, latencies, walls = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()  # --seconds is wall-clock time spent in rounds
    while True:
        round_start = time.perf_counter()
        t0 = CLOCK()
        op = workload.run_round()
        untraced.append(CLOCK() - t0)
        walls.append(time.perf_counter() - round_start)
        workload.record(op.results)
        latencies.extend(op.latency)
        attempted += workload.ops
        failed += op.failed
        if tracer is not None:
            with tracer.install(sdexit), tracer.span("round"):
                t0 = CLOCK()
                op = workload.run_round(tracer)
                traced.append(CLOCK() - t0)
            workload.record(op.results)
            attempted += workload.ops
            failed += op.failed
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    try:
        problems, notes = workload.check()
    except Exception as exc:  # malformed output: report it as a failed check
        problems, notes = [f"check raised {exc!r}"], []
    for note in notes:
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"{len(untraced)} untraced round(s), median wall-clock {statistics.median(walls):.3f} s; "
        f"op CPU time p99 {percentile_us(latencies, 99):.1f} us, "
        f"max {max(latencies) * 1e6:.1f} us over {len(latencies)} operations"
    )

    cpu_s = statistics.median(untraced)
    declared = json.loads(BENCHMARK.read_text())["per_layer" if tracer else "end_to_end"]
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "items_per_s": workload.items / cpu_s,
            "op_p50_us": percentile_us(latencies, 50),
            "op_p90_us": percentile_us(latencies, 90),
        }
    else:
        tracer.trace_reference(sdexit, workload.reference_states())
        values = tracer.layer_metrics(len(traced), workload.bytes_written)
        values["lp.dense_p50_us"] = percentile_us(workload.dense_times, 50) if workload.dense_times else 0.0
        values["trace.overhead_s"] = statistics.median(traced) - cpu_s
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.tsv")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.pop(m["name"]), "unit": m["unit"]} for m in declared},
    }
    if values:
        raise RuntimeError(f"metrics missing from {BENCHMARK.name}: {sorted(values)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

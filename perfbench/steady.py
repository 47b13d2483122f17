"""Steadiness of the benchmark: two alternating sets of fresh-process runs.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Runs run.py --runs times per workload in each of two sets, one process at a
time (no two workloads at once), with the workloads and the run length of
BENCHMARK.json.  Set s, run r uses seed first_seed + 1000 s + r.  The runs
alternate between the sets, and which set goes first alternates from run to
run.  For every end-to-end metric it prints each set's median and quartiles,
the spread (Q3 - Q1) / median beside the metric's bound, and the shift of
the second set's median against the first in the metric's worse direction.

The verdict is "steady" only if every run passed its checks with no failed
operation, and every spread and every shift, in either direction, is within
the metric's bound.  The raw results go to perfbench/results/.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_TIMEOUT_S = 900
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for r in range(args.runs):
        order = range(SETS) if r % 2 == 0 else reversed(range(SETS))
        for s in order:
            for w in workloads:
                seed = args.first_seed + 1000 * s + r
                t0 = time.perf_counter()
                res = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(res)
                print(f"run {r} set {s} {w} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                      f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                      flush=True)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out_dir / f"steady-{stamp}.json").write_text(json.dumps(results, indent=1) + "\n")

    ok = True
    for w in workloads:
        print(f"\n{w}")
        runs = [res for set_runs in results[w] for res in set_runs]
        bad = sum(not res["correct"] or res["failed"] for res in runs)
        print(f"  runs with a failed check or operation: {bad} of {len(runs)}")
        ok &= bad == 0
        for meta in bench["end_to_end"]:
            name, bound = meta["name"], meta["bound"]
            line = f"  {name:16s}"
            medians = []
            for s in range(SETS):
                q1, q2, q3 = statistics.quantiles([res["metrics"][name]["value"] for res in results[w][s]], n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                line += f" | med {q2:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"
                ok &= spread <= bound
            sign = 1 if meta["better"] == "lower" else -1
            shift = sign * (medians[1] - medians[0]) / medians[0]
            print(f"{line} | bound {bound} | shift {shift:+.3f}")
            ok &= abs(shift) <= bound
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

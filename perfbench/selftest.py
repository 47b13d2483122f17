"""Self-test of the benchmark's checks: each must pass real output and reject a corruption.

    python3 perfbench/selftest.py

Produces small real outputs with sdexit (one short run_scenario per variant,
a few hundred controller states), confirms every check in checks.py accepts
them, then corrupts them one way at a time (a perturbed certificate, a tally
off by one, a bound above ci_hi, an unfrozen CSV row after the exit, ...)
and confirms the check rejects each.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sdexit  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from reference import grid_steps  # noqa: E402

failures = []


def expect(label: str, problems: list[str], rejected: bool) -> None:
    ok = bool(problems) == rejected
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {'rejected' if problems else 'accepted'}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        failures.append(label)


def scenario_case(name: str, workdir: Path):
    """A short real run_scenario whose representative path exits before T."""
    cli = sdexit.cli
    raw = json.loads(cli.builtin_config_path(name).read_text())
    raw["n_paths"] = 256
    for seed in range(1, 50):
        raw["master_seed"] = seed
        cfg = cli.load_scenario(dict(raw))
        result = cli.run_scenario(cfg, workdir)
        if result["exit_time"] is not None:
            return cfg, result
    raise RuntimeError(f"no exiting representative path for {name}")


def test_scenario(name: str, workdir: Path) -> None:
    cfg, result = scenario_case(name, workdir)
    model, spec, x0 = sdexit.cli.instantiate(cfg)
    scen = workloads.scenario_of(cfg)
    summary = json.loads((workdir / "mc_summary.json").read_text())
    horizon = float(cfg.T)
    steps = grid_steps(horizon, cfg.dt)

    expect(f"{name} tallies", checks.check_tallies(summary, cfg.n_paths, cfg.z), False)
    bad = copy.deepcopy(summary)
    bad["n_target"] += 1
    expect(f"{name} tally off by one", checks.check_tallies(bad, cfg.n_paths, cfg.z), True)
    bad = copy.deepcopy(summary)
    bad["ci_lo"] = bad["ci_hi"] = bad["estimate"] - 1e-3
    expect(f"{name} estimate outside its interval", checks.check_tallies(bad, cfg.n_paths, cfg.z), True)

    expect(f"{name} t=0 bound", checks.check_t0_bound(summary, scen, x0, horizon), False)
    bad = copy.deepcopy(summary)
    bad["bound_finite_t0"] += 1e-6
    expect(f"{name} perturbed t=0 bound", checks.check_t0_bound(bad, scen, x0, horizon), True)
    bad = copy.deepcopy(summary)
    bad["ci_hi"] = bad["bound_finite_t0"] * 0.5
    expect(f"{name} bound above ci_hi", checks.check_t0_bound(bad, scen, x0, horizon), True)

    dense = sdexit.synthesis.synthesize_control(model, spec, x0)
    cert = summary["cert_t0"]
    lex = spec.weight_w >= spec.lexicographic_threshold
    v0 = [float(scen.value(x0))]
    want = {"a": [dense.a], "b": [dense.b], "feasible": [True]}
    expect(f"{name} t=0 certificate",
           checks.compare_certificates({"a": [cert["a"]], "b": [cert["b"]], "feasible": [True]}, want, spec.weight_w, lex, v0), False)
    expect(f"{name} perturbed t=0 a",
           checks.compare_certificates({"a": [cert["a"] * (1 + 1e-6)], "b": [cert["b"]], "feasible": [True]}, want, spec.weight_w, lex, v0), True)

    header, rows = checks.read_trajectory(workdir / "trajectory.csv")
    expect(f"{name} trajectory.csv", checks.check_trajectory(header, rows, scen, steps, result["exit_time"]), False)
    bad = copy.deepcopy(rows)
    col = header.index("x1")
    bad[-1][col] = repr(float(bad[-1][col]) + 1e-12)
    bad[-1][header.index("barrier")] = repr(float(scen.value(np.array([float(bad[-1][col]), float(bad[-1][col + 1])]))))
    expect(f"{name} unfrozen row after exit", checks.check_trajectory(header, bad, scen, steps, result["exit_time"]), True)
    expect(f"{name} missing row", checks.check_trajectory(header, rows[:-1], scen, steps, result["exit_time"]), True)
    bad = copy.deepcopy(rows)
    bad[0][header.index("bound_infinite")] = "1.0000001"
    expect(f"{name} bound above 1", checks.check_trajectory(header, bad, scen, steps, result["exit_time"]), True)

    seeds = [sdexit.sim.derive_path_seed(cfg.master_seed, i) for i in range(8)]
    batch = sdexit.sim.run_paths(model, spec, x0, cfg.dt, horizon, seeds)
    program = checks.program_outcomes(batch, cfg.dt)
    reference = [scen.simulate(x0, cfg.dt, steps, s, checks.NEAR_TOL) for s in seeds]
    expect(f"{name} re-simulation", checks.check_resimulation(program, reference)[0], False)
    far = [i for i, r in enumerate(reference) if not r[2]][0]
    outcome, step = program[far]
    program[far] = (outcome, (step or steps) - 1)
    expect(f"{name} shifted exit step", checks.check_resimulation(program, reference)[0], True)


def test_controller(name: str, index: int) -> None:
    cli = sdexit.cli
    cfg = cli.load_scenario(cli.builtin_config_path(name))
    model, spec, _ = cli.instantiate(cfg)
    scen = workloads.scenario_of(cfg)
    states = workloads.interior_states(scen, cfg.scenario_barrier, workloads.stream(7, workloads.STATES, index), 200)
    syn = sdexit.synthesis
    fast = workloads.Controller._arrays([syn.synthesize_control_fast(model, spec, x) for x in states])
    dense = workloads.Controller._arrays([syn.synthesize_control(model, spec, x) for x in states])
    lex = spec.weight_w >= spec.lexicographic_threshold
    v = scen.value(states)
    eps, delta = spec.strict_margin_eps, spec.delta

    def cert(arrays):
        return checks.check_certificates(scen, states, arrays["u"], arrays["a"], arrays["b"], arrays["feasible"], eps, delta)

    expect(f"{name} certificates", cert(fast), False)
    expect(f"{name} agreement with the dense simplex", checks.compare_certificates(fast, dense, spec.weight_w, lex, v), False)
    i = int(np.flatnonzero(fast["feasible"] & (v > 0.01))[0])
    for label, key, delta_value in (("a + 1e-6", "a", 1e-6), ("b - 1e-6", "b", -1e-6)):
        bad = copy.deepcopy(fast)
        bad[key][i] += delta_value
        rejected = cert(bad) + checks.compare_certificates(bad, dense, spec.weight_w, lex, v)
        expect(f"{name} perturbed {label}", rejected, True)
    bad = copy.deepcopy(fast)
    bad["u"][i] = -bad["u"][i]
    expect(f"{name} flipped control", cert(bad), True)
    bad = copy.deepcopy(fast)
    bad["a"][i] = bad["b"][i]
    expect(f"{name} margin a - b = 0", cert(bad), True)
    bad = copy.deepcopy(fast)
    shift = delta - bad["a"][i] + 1.0  # a v - b unchanged, a - b grows: only the box breaks
    bad["a"][i] += shift
    bad["b"][i] += shift * v[i]
    expect(f"{name} a above its box", cert(bad), True)
    bad = copy.deepcopy(fast)
    bad["feasible"][i] = False
    expect(f"{name} fallback on one route only", checks.compare_certificates(bad, dense, spec.weight_w, lex, v), True)


def main() -> int:
    workdir = HERE / "_work" / f"selftest-{os.getpid()}"
    try:
        for name in ("scenario1_w1", "scenario2_whigh", "scenario3_whigh"):
            test_scenario(name, workdir / name)
        for index, name in enumerate(workloads.SHIPPED):
            test_controller(name, index)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"\n{len(failures)} check(s) misbehaved" if failures else "\nall checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

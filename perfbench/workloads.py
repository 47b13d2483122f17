"""The benchmark's workloads: inputs, timed rounds and output checks.

Every workload is a closed loop: each call waits for the previous one, in
one process with one compute thread.  All inputs derive from the run's
seed through numpy SeedSequence entropy lists [seed, tag, index]:

* MASTER: config index j's master seed is the first 32-bit word of
  SeedSequence([seed, MASTER, j]);
* SAMPLE: the paths that config j re-simulates for the check are drawn from
  SeedSequence([seed, SAMPLE, j]);
* STATES: config j's controller states come from SeedSequence([seed, STATES, j]).

A round is one pass over the workload's operations; every round repeats the
same operations on the same inputs, so later rounds are also checked to give
byte-identical results.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

import checks
from reference import Scenario, grid_steps, path_seed

SHIPPED = [
    "scenario1_w1",
    "scenario1_whigh",
    "scenario2_w1",
    "scenario2_whigh",
    "scenario3_w1",
    "scenario3_whigh",
]
LONG_HORIZON = ["scenario1_w1", "scenario2_whigh", "scenario3_w1"]
MASTER, SAMPLE, STATES = 1, 2, 3
RESIM_PATHS = 16  # paths per config re-simulated by the reference loop
WARMUP_STEPS = 20
OUTPUTS = ("trajectory.csv", "mc_summary.json", "config_echo.json")
# Timings are CPU time of this single-threaded process: on a shared host the
# wall clock also counts time the machine runs other work, which made repeated
# runs of the same seed differ by up to 25 % while CPU time held within 7 %.
CLOCK = time.process_time


def stream(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, index])))


def master_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, MASTER, index]).generate_state(1)[0])


def scenario_of(cfg) -> Scenario:
    return Scenario(cfg.model["params"], cfg.scenario_barrier, cfg.variant == "ProblemI")


class Op:
    """Outcome of a round: per-operation latencies (s), failures and raw results.

    The caller passes ``results`` to the workload's ``record`` once the
    round's timing has stopped, so the repeat check is not timed.
    """

    def __init__(self):
        self.latency: list[float] = []
        self.failed = 0
        self.results: list = []


class MonteCarlo:
    """run_scenario (the ``sdexit run`` path) over shipped configs.

    mc_shipped runs all six configs at their own T=2, dt=1e-3 with 4096 paths
    (two default chunks); mc_long_horizon runs three configs at T="inf"
    (simulated to mc_horizon=20) with 8192 paths (four 2048-path chunks).
    """

    def __init__(self, sdexit, seed: int, workdir: Path, names, n_paths: int, infinite: bool):
        self.sdexit = sdexit
        self.workdir = workdir
        self.cases = []
        cli = sdexit.cli
        for j, name in enumerate(names):
            raw = json.loads(cli.builtin_config_path(name).read_text())
            raw["n_paths"] = n_paths
            raw["master_seed"] = master_seed(seed, j)
            if infinite:
                raw["T"] = "inf"
            cfg = cli.load_scenario(raw)
            model, spec, x0 = cli.instantiate(cfg)
            sample = stream(seed, SAMPLE, j).choice(n_paths, RESIM_PATHS, replace=False)
            self.cases.append((name, cfg, model, spec, x0, sorted(int(i) for i in sample)))
        for name, cfg, model, spec, x0, _ in self.cases:  # warm-up
            seeds = [path_seed(cfg.master_seed, i) for i in range(32)]
            sdexit.sim.run_paths(model, spec, x0, cfg.dt, WARMUP_STEPS * cfg.dt, seeds)
        self.items = n_paths * len(self.cases)
        self.ops = len(self.cases)
        self.results = self.digests = None
        self.repeat_problems = []
        self.dense_times: list[float] = []  # synthesize_control latencies, from the check
        self.bytes_written = 0

    def run_round(self, tracer=None) -> Op:
        run_scenario = self.sdexit.cli.run_scenario
        if tracer is not None:
            run_scenario = tracer.wrap(run_scenario, "cli.run_scenario")
        op = Op()
        for name, cfg, *_ in self.cases:
            t0 = CLOCK()
            try:
                op.results.append(run_scenario(cfg, self.workdir / name))
            except Exception as exc:  # count the failure, keep measuring
                op.failed += 1
                op.results.append(repr(exc))
            op.latency.append(CLOCK() - t0)
        return op

    def record(self, results) -> None:
        """Keep the first round's results; later rounds must repeat them byte for byte."""
        digests = {}
        total = 0
        for name, *_ in self.cases:
            for fname in OUTPUTS:
                path = self.workdir / name / fname
                if path.exists():
                    data = path.read_bytes()
                    digests[name, fname] = hashlib.sha256(data).hexdigest()
                    total += len(data)
        self.bytes_written = total
        if self.results is None:
            self.results, self.digests = results, digests
        elif results != self.results or digests != self.digests:
            self.repeat_problems.append("a later round's outputs differ from the first round's")

    def check(self) -> tuple[list[str], list[str]]:
        """(problems, notes) for the first round's outputs."""
        sdexit = self.sdexit
        problems = list(self.repeat_problems)
        near_total = 0
        for (name, cfg, model, spec, x0, sample), result in zip(self.cases, self.results):
            def report(found, name=name):
                problems.extend(f"{name}: {p}" for p in found)

            if isinstance(result, str):
                report([f"run_scenario raised {result}"])
                continue
            scen = scenario_of(cfg)
            out = self.workdir / name
            summary = json.loads((out / "mc_summary.json").read_text())
            infinite = cfg.T == "inf"
            horizon = math.inf if infinite else float(cfg.T)
            sim_horizon = cfg.mc_horizon if infinite else float(cfg.T)
            steps = grid_steps(sim_horizon, cfg.dt)
            report(checks.check_tallies(summary, cfg.n_paths, cfg.z))
            report(checks.check_t0_bound(summary, scen, x0, horizon))

            t0 = CLOCK()
            dense = sdexit.synthesis.synthesize_control(model, spec, x0)
            self.dense_times.append(CLOCK() - t0)
            cert = summary["cert_t0"]
            feasible = cert["status"] == "feasible"
            report(
                checks.compare_certificates(
                    {"a": [cert["a"] if feasible else math.nan], "b": [cert["b"] if feasible else math.nan], "feasible": [feasible]},
                    {"a": [dense.a], "b": [dense.b], "feasible": [dense.status == "feasible"]},
                    spec.weight_w,
                    spec.weight_w >= spec.lexicographic_threshold,
                    [float(scen.value(x0))],
                )
            )

            header, rows = checks.read_trajectory(out / "trajectory.csv")
            report(checks.check_trajectory(header, rows, scen, steps, result["exit_time"]))

            seeds = [sdexit.sim.derive_path_seed(cfg.master_seed, i) for i in sample]
            if seeds != [path_seed(cfg.master_seed, i) for i in sample]:
                report(["derive_path_seed differs from the splitmix64 mix"])
            batch = sdexit.sim.run_paths(model, spec, x0, cfg.dt, sim_horizon, seeds)
            reference = [scen.simulate(x0, cfg.dt, steps, s, checks.NEAR_TOL) for s in seeds]
            found, near = checks.check_resimulation(checks.program_outcomes(batch, cfg.dt), reference)
            report(found)
            near_total += near
        notes = [
            f"re-simulated {RESIM_PATHS * len(self.cases)} paths with the reference loop; "
            f"{near_total} came within {checks.NEAR_TOL:g} of a threshold"
        ]
        return problems, notes

    def reference_states(self):
        """(model, spec, state) for the dense-simplex reference: each config's x0."""
        return [(model, spec, x0) for _, _, model, spec, x0, _ in self.cases]


def interior_states(scen: Scenario, barrier_index: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """States with barrier value uniform over (0.001, 0.999), drawn per barrier geometry.

    1: h = -0.45 x1 + 0.25 x3 is affine, so x1 ~ U(-2, 1) and x3 solves h;
    2: h = (|x|^2 - 1)/8, so |x| = sqrt(1 + 8h) at a uniform angle;
    3: g = |x - (10, 10)|^2 / 64, so |x - (10, 10)| = 8 sqrt(g) at a uniform angle.
    """
    v = rng.uniform(0.001, 0.999, count)
    if barrier_index == 1:
        x1 = rng.uniform(-2.0, 1.0, count)
        states = np.stack([x1, (v + 0.45 * x1) / 0.25], axis=1)
    else:
        radius = np.sqrt(1.0 + 8.0 * v) if barrier_index == 2 else 8.0 * np.sqrt(v)
        angle = rng.uniform(0.0, 2.0 * np.pi, count)
        states = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        if barrier_index == 3:
            states += 10.0
    value = scen.value(states)
    lo = 0.0 if scen.variant_i else -math.inf
    if not ((value > lo) & (value < 1.0)).all():
        raise RuntimeError("generated controller state outside the open domain")
    return states


class Controller:
    """One synthesize_control_fast call per state (P = 1), the paper's online use.

    The same number of states per shipped config, barrier values uniform in
    (0, 1): no noise, no Euler step, no output.
    """

    STATES_PER_CONFIG = 3000

    def __init__(self, sdexit, seed: int, workdir: Path):
        self.sdexit = sdexit
        cli = sdexit.cli
        self.cases = []
        for j, name in enumerate(SHIPPED):
            cfg = cli.load_scenario(cli.builtin_config_path(name))
            model, spec, _ = cli.instantiate(cfg)
            scen = scenario_of(cfg)
            states = interior_states(scen, cfg.scenario_barrier, stream(seed, STATES, j), self.STATES_PER_CONFIG)
            self.cases.append((name, model, spec, scen, states, list(states)))
        fast = sdexit.synthesis.synthesize_control_fast
        for _, model, spec, _, _, xs in self.cases:  # warm-up
            for x in xs[:32]:
                fast(model, spec, x)
        self.items = self.ops = self.STATES_PER_CONFIG * len(self.cases)
        self.results = None
        self.repeat_problems = []
        self.dense_times: list[float] = []  # synthesize_control latencies, from the check
        self.bytes_written = 0

    def run_round(self, tracer=None) -> Op:
        fast = self.sdexit.synthesis.synthesize_control_fast
        if tracer is not None:
            fast = tracer.wrap(fast, "synthesis.fast")
        op = Op()
        clock = CLOCK
        latency = op.latency
        for _, model, spec, _, _, xs in self.cases:
            if tracer is not None:
                model, spec = tracer.timed(model, spec)
            out = []
            for x in xs:
                t0 = clock()
                try:
                    out.append(fast(model, spec, x))
                except Exception:  # count the failure, keep measuring
                    op.failed += 1
                    out.append(None)
                latency.append(clock() - t0)
            op.results.append(out)
        return op

    @staticmethod
    def _arrays(out) -> dict:
        ok = [r is not None for r in out]
        return {
            "u": np.array([r.u[0] if r is not None else math.nan for r in out]),
            "a": np.array([r.a if r is not None else math.nan for r in out]),
            "b": np.array([r.b if r is not None else math.nan for r in out]),
            "feasible": np.array([r is not None and r.status == "feasible" for r in out]),
            "ok": np.array(ok),
        }

    def record(self, results) -> None:
        """Keep the first round's results; later rounds must repeat them exactly."""
        arrays = [self._arrays(out) for out in results]
        if self.results is None:
            self.results = arrays
            return
        for first, now in zip(self.results, arrays):
            if any(not np.array_equal(first[k], now[k], equal_nan=True) for k in first):
                self.repeat_problems.append("a later round's results differ from the first round's")
                return

    def check(self) -> tuple[list[str], list[str]]:
        problems = list(self.repeat_problems)
        synthesize = self.sdexit.synthesis.synthesize_control
        fallbacks = 0
        for (name, model, spec, scen, states, xs), fast in zip(self.cases, self.results):
            if not fast["ok"].all():
                problems.append(f"{name}: {int((~fast['ok']).sum())} calls raised")
            found = checks.check_certificates(
                scen, states, fast["u"], fast["a"], fast["b"], fast["feasible"],
                spec.strict_margin_eps, spec.delta,
            )
            dense = []
            for x in xs:
                t0 = CLOCK()
                dense.append(synthesize(model, spec, x))
                self.dense_times.append(CLOCK() - t0)
            found += checks.compare_certificates(
                fast, self._arrays(dense), spec.weight_w,
                spec.weight_w >= spec.lexicographic_threshold, scen.value(states),
            )
            problems.extend(f"{name}: {p}" for p in found)
            fallbacks += int((~fast["feasible"]).sum())
        notes = [f"{fallbacks} of {self.ops} states fall back on both routes"]
        return problems, notes

    def reference_states(self):
        """(model, spec, state) for the dense-simplex reference: every controller state."""
        return [(model, spec, x) for _, model, spec, _, _, xs in self.cases for x in xs]


def mc_shipped(sdexit, seed, workdir):
    return MonteCarlo(sdexit, seed, workdir, SHIPPED, 4096, infinite=False)


def mc_long_horizon(sdexit, seed, workdir):
    return MonteCarlo(sdexit, seed, workdir, LONG_HORIZON, 8192, infinite=True)


def controller_online(sdexit, seed, workdir):
    return Controller(sdexit, seed, workdir)


WORKLOADS = {
    "mc_shipped": mc_shipped,
    "mc_long_horizon": mc_long_horizon,
    "controller_online": controller_online,
}

"""Scenario configuration and command-line entry points.

Subcommands:

    run       simulate a scenario config: writes trajectory.csv (one
              representative path seeded with the master seed),
              mc_summary.json (omitted when n_paths == 0) and
              config_echo.json into --out
    validate  parse + validate a config and print its normalized form
    selftest  barrier derivative checks and LP solver-vs-oracle comparison

Config files are strict JSON: unknown fields are rejected, booleans are not
numbers, and every error names the offending field.  Overrides (--paths,
--seed, --dt, --horizon, -w, --delta) are applied to the raw config before
validation, so an invalid override fails exactly like an invalid file value.
Exit codes: 0 success, 1 selftest failure only, 2 configuration/usage error,
a run that cannot finish (an output directory that cannot be written, arrays
too large to allocate), or a stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from importlib.resources import files as _pkg_files
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .bounds import bound_curve
from .errors import ConfigError, SdexitError
from .lp import OPTIMAL, lp_brute_force, lp_solve, random_lp
from .mc import estimate_exit_probability
from .model import (
    SdeModel,
    _check_barrier_dimension,
    acc_model,
    check_barrier_derivatives,
    deterministic_1d_model,
    linear_model,
    quadratic_barrier,
    scenario_barrier,
)
from .sim import _grid_steps, _start_state, _whole_steps, simulate_path
from .synthesis import FALLBACK, FEASIBLE, ProblemSpec, ProblemVariant

__all__ = [
    "ScenarioConfig",
    "load_scenario",
    "validate_config",
    "instantiate",
    "run_scenario",
    "builtin_config_path",
    "cli_main",
]


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Validated, read-only normal form of a scenario; a field with a default is optional."""

    model: MappingProxyType
    scenario_barrier: int | MappingProxyType
    variant: str
    x0: tuple
    T: float | str  # positive float, or the string "inf"
    dt: float
    w: float
    delta: float
    strict_margin_eps: float = 1e-6
    n_paths: int
    master_seed: int
    z: float = 3.0
    mc_horizon: float = 20.0

    @cached_property
    def _objects(self) -> tuple[SdeModel, ProblemSpec, np.ndarray]:
        """instantiate's model, spec and read-only x0, built on first use and kept."""
        build = _MODELS[self.model["name"]][0]
        model = _as_field("model.params", build, *self.model["params"].values())
        b = self.scenario_barrier
        barrier = scenario_barrier(b) if isinstance(b, int) else _as_field(
            "scenario_barrier", quadratic_barrier, b["Q"], b["c"], b["d"]
        )
        spec = ProblemSpec(
            variant=ProblemVariant(self.variant),
            barrier=barrier,
            weight_w=self.w,
            delta=self.delta,
            strict_margin_eps=self.strict_margin_eps,
        )
        x0 = np.array(self.x0, dtype=float)
        x0.flags.writeable = False
        return model, spec, x0

    @property
    def _sim_horizon(self) -> float:
        """The horizon a run simulates: T, or mc_horizon when T is "inf"."""
        return self.mc_horizon if self.T == "inf" else float(self.T)


def _number(field: str, value, *, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(field, f"must be finite, got {value!r}")
    if positive and out <= 0:
        raise ConfigError(field, f"must be positive, got {value!r}")
    if nonnegative and out < 0:
        raise ConfigError(field, f"must be nonnegative, got {value!r}")
    return out


def _integer(field: str, value, *, nonnegative=False) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"must be an integer, got {value!r}")
    if nonnegative and value < 0:
        raise ConfigError(field, f"must be nonnegative, got {value!r}")
    return value


def _number_list(field: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(field, f"must be a list of numbers, got {value!r}")
    return tuple(_number(f"{field}[{i}]", v) for i, v in enumerate(value))


def _matrix(field: str, value) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(field, "must be a nonempty list of rows")
    rows = tuple(_number_list(f"{field}[{i}]", row) for i, row in enumerate(value))
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ConfigError(f"{field}[{i}]", f"has length {len(row)}, row 0 {len(rows[0])}")
    return rows


def _number_params(build) -> dict:
    return {p.name: (_number, p.default) for p in inspect.signature(build).parameters.values()}


# model name -> (builder, {param: (parser, default or MISSING)}), params in
# the builder's argument order, which is also their order in the normal form
_MODELS = {
    "acc": (acc_model, _number_params(acc_model)),
    "deterministic_1d": (deterministic_1d_model, _number_params(deterministic_1d_model)),
    "linear": (
        linear_model,
        {
            "A": (_matrix, MISSING),
            "d": (_number_list, MISSING),
            "B": (_matrix, MISSING),
            "sigma": (_matrix, MISSING),
            "u_lo": (_number_list, MISSING),
            "u_hi": (_number_list, MISSING),
        },
    ),
}


def _validate_model(raw) -> MappingProxyType:
    if not isinstance(raw, dict):
        raise ConfigError("model", "must be an object with a 'name' field")
    unknown = set(raw) - {"name", "params"}
    if unknown:
        raise ConfigError("model", f"unknown keys {sorted(unknown)}")
    name = raw.get("name")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("model.params", "must be an object")
    if not isinstance(name, str) or name not in _MODELS:
        raise ConfigError("model.name", f"unknown model {name!r}")
    table = _MODELS[name][1]
    missing = [key for key, (_, default) in table.items() if default is MISSING and key not in params]
    if missing:
        raise ConfigError("model.params", f"missing keys {sorted(missing)}")
    unknown = set(params) - set(table)
    if unknown:
        raise ConfigError("model.params", f"unknown keys {sorted(unknown)}")
    given = {key: table[key][0](f"model.params.{key}", val) for key, val in params.items()}
    params = {key: given.get(key, default) for key, (_, default) in table.items()}
    return MappingProxyType({"name": name, "params": MappingProxyType(params)})


def _validate_barrier(raw) -> int | MappingProxyType:
    if isinstance(raw, int) and not isinstance(raw, bool):
        if raw not in (1, 2, 3):
            raise ConfigError("scenario_barrier", f"unknown built-in scenario {raw}")
        return raw
    if isinstance(raw, dict):
        unknown = set(raw) - {"Q", "c", "d"}
        if unknown:
            raise ConfigError("scenario_barrier", f"unknown keys {sorted(unknown)}")
        if "c" not in raw or "d" not in raw:
            raise ConfigError("scenario_barrier", "inline barrier needs 'c' and 'd'")
        c = _number_list("scenario_barrier.c", raw["c"])
        d = _number("scenario_barrier.d", raw["d"])
        q = raw.get("Q")
        if q is not None:
            q = _matrix("scenario_barrier.Q", q)
            if len(q) != len(c) or len(q[0]) != len(c):
                raise ConfigError("scenario_barrier.Q", "must be square and match 'c'")
        return MappingProxyType({"Q": q, "c": c, "d": d})
    raise ConfigError("scenario_barrier", "must be 1, 2, 3 or an inline object")


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate a raw JSON object against the strict scenario schema."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    defaults = {f.name: f.default for f in fields(ScenarioConfig)}
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")
    missing = {key for key, default in defaults.items() if default is MISSING} - set(raw)
    if missing:
        raise ConfigError(sorted(missing)[0], "missing required field")
    raw = {**defaults, **raw}

    model_field = _validate_model(raw["model"])
    barrier_field = _validate_barrier(raw["scenario_barrier"])
    variant = raw["variant"]
    if variant not in (ProblemVariant.PROBLEM_I.value, ProblemVariant.PROBLEM_II.value):
        raise ConfigError("variant", f"must be 'ProblemI' or 'ProblemII', got {variant!r}")

    cfg = ScenarioConfig(
        model=model_field,
        scenario_barrier=barrier_field,
        variant=variant,
        T="inf" if raw["T"] == "inf" else _number("T", raw["T"], positive=True),
        x0=_number_list("x0", raw["x0"]),
        dt=_number("dt", raw["dt"], positive=True),
        w=_number("w", raw["w"], nonnegative=True),
        delta=_number("delta", raw["delta"], positive=True),
        strict_margin_eps=_number("strict_margin_eps", raw["strict_margin_eps"], positive=True),
        n_paths=_integer("n_paths", raw["n_paths"], nonnegative=True),
        master_seed=_integer("master_seed", raw["master_seed"], nonnegative=True),
        z=_number("z", raw["z"], positive=True),
        mc_horizon=_number("mc_horizon", raw["mc_horizon"], positive=True),
    )
    _as_field("dt", _grid_steps, cfg._sim_horizon, cfg.dt)
    if cfg.T != "inf" and _whole_steps(cfg.T, cfg.dt) is None:
        raise ConfigError("T", f"must be a whole number of dt={cfg.dt!r} steps, got {cfg.T!r}")

    # cross-field checks, on the objects that instantiate returns
    model, spec, x0 = instantiate(cfg)
    _as_field("scenario_barrier", _check_barrier_dimension, model, spec.barrier)
    _as_field("x0", _start_state, model, spec, x0)
    return cfg


def _read_raw(path) -> dict:
    """Parse a JSON config file into its raw top-level object."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(data)  # JSON is UTF-8 (RFC 8259); json.loads detects it from the bytes
    except (ValueError, RecursionError) as exc:  # bad JSON or text, or nested too deep
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return raw


def load_scenario(source) -> ScenarioConfig:
    """Load and validate a scenario from a path or a raw dict."""
    return validate_config(source if isinstance(source, dict) else _read_raw(source))


def _as_field(field: str, fn, *args):
    """fn(*args), with a package error raised as a ConfigError of the config field."""
    try:
        return fn(*args)
    except SdexitError as exc:
        raise ConfigError(field, str(exc)) from exc


def instantiate(cfg: ScenarioConfig) -> tuple[SdeModel, ProblemSpec, np.ndarray]:
    """The config's model, problem spec and read-only x0: the same objects on every call."""
    return cfg._objects


def builtin_config_path(name: str) -> Path:
    """Filesystem path of a shipped scenario config (no .json suffix needed)."""
    if not name.endswith(".json"):
        name = f"{name}.json"
    return Path(str(_pkg_files("sdexit").joinpath("configs", name)))


def _echo(cfg: ScenarioConfig) -> dict:
    """The config's fields in order: json writes tuples as arrays, mappings with default=dict."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def _cells(column: np.ndarray) -> list[str]:
    """One CSV column: each float with 17 significant digits, NaN as an empty cell."""
    return ["" if x != x else f"{x:.17g}" for x in column.tolist()]


def run_scenario(cfg: ScenarioConfig, out_dir) -> dict:
    """Run one scenario: representative trajectory, Monte Carlo, echo files."""
    model, spec, x0 = instantiate(cfg)
    bound_horizon = math.inf if cfg.T == "inf" else float(cfg.T)

    traj = simulate_path(model, spec, x0, cfg.dt, cfg._sim_horizon, path_seed=cfg.master_seed)
    curve = bound_curve(spec, traj.times, traj.values, traj.cert_a, traj.cert_b, bound_horizon)
    out = Path(out_dir)  # made only once the path is simulated: a failed run leaves no --out
    out.mkdir(parents=True, exist_ok=True)

    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(model.n)]
        + [f"u{i + 1}" for i in range(model.m)]
        + ["a", "b", "status", "barrier", "bound_finite", "bound_infinite"]
    )
    table = np.column_stack(
        (traj.times, traj.states, traj.controls, traj.cert_a, traj.cert_b, traj.values, curve)
    )
    status = np.where(np.isnan(traj.cert_a), FALLBACK, FEASIBLE)  # NaN: no certificate
    # no cell needs csv quoting; "\r\n" is the csv module's default line end
    with open(out / "trajectory.csv", "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(table), 1024):  # 1024 rows of strings alive at once
            columns = [_cells(col) for col in table[lo : lo + 1024].T]
            columns.insert(header.index("status"), status[lo : lo + 1024].tolist())
            fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))

    with open(out / "config_echo.json", "w") as fh:
        json.dump(_echo(cfg), fh, indent=2, allow_nan=False, default=dict)
        fh.write("\n")

    # NaN, the arrays' "no value", is JSON null
    exit_time, fin0, inf0, a0, b0 = (
        None if math.isnan(x) else float(x)
        for x in (traj.exit_time, *curve[0], traj.cert_a[0], traj.cert_b[0])
    )
    result: dict = {"outcome": traj.outcome, "exit_time": exit_time}
    if cfg.n_paths >= 1:
        mc = estimate_exit_probability(
            model, spec, x0, cfg.dt, cfg._sim_horizon, cfg.n_paths, cfg.master_seed, z=cfg.z
        )
        summary = asdict(mc)
        summary["bound_finite_t0"] = fin0
        summary["bound_infinite_t0"] = inf0
        summary["cert_t0"] = {"a": a0, "b": b0, "status": str(status[0])}
        with open(out / "mc_summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, allow_nan=False)
            fh.write("\n")
        result.update(summary)
    return result


# ---------------------------------------------------------------------------
# selftest


def _selftest(n_instances: int, n_states: int) -> int:
    rng = np.random.default_rng(0)
    ok = True
    for idx in (1, 2, 3):
        barrier = scenario_barrier(idx)
        worst = 0.0
        for _ in range(n_states):
            x = rng.uniform(-20.0, 20.0, size=barrier.n)
            res = check_barrier_derivatives(barrier, x)
            worst = max(worst, res["grad_err"], res["hess_err"])
            ok = ok and res["ok"]
        print(f"selftest barrier scenario {idx}: max derivative error {worst:.3e}")
    mismatches = 0
    for _ in range(n_instances):
        prob = random_lp(rng)
        got = lp_solve(prob)
        want = lp_brute_force(prob)
        if got.status != want.status:
            mismatches += 1
        elif got.status == OPTIMAL and abs(got.objective_value - want.objective_value) > 1e-8 * (
            1.0 + abs(want.objective_value)
        ):
            mismatches += 1
    print(f"selftest lp: {n_instances} random instances, {mismatches} solver/oracle mismatches")
    ok = ok and mismatches == 0
    print(f"selftest: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _horizon(text: str) -> float | str:
    """--horizon's value: "inf", else a number, else the text for validation to reject."""
    try:
        return text if text == "inf" else float(text)
    except ValueError:
        return text


# (flags, type, config field) of each override; the last flag names the metavar
_OVERRIDES = (
    (("--paths",), int, "n_paths"),
    (("--seed",), int, "master_seed"),
    (("--dt",), float, "dt"),
    (("--horizon",), _horizon, "T"),
    (("-w", "--weight"), float, "w"),
    (("--delta",), float, "delta"),
)


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    for flags, parse, field in _OVERRIDES:
        parser.add_argument(
            *flags,
            type=parse,
            dest=field,
            metavar=flags[-1][2:].upper(),
            help=f"override {field}" + (" (number or 'inf')" if field == "T" else ""),
        )


def _apply_overrides(raw: dict, args: argparse.Namespace) -> None:
    raw.update((f, getattr(args, f)) for _, _, f in _OVERRIDES if getattr(args, f) is not None)


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdexit",
        description="Exit-probability controller synthesis: simulate, validate, selftest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--out", default=".", help="output directory (default: cwd)")
    _add_overrides(p_run)

    p_val = sub.add_parser("validate", help="validate a config and print its normal form")
    p_val.add_argument("config", help="path to a scenario JSON file")
    _add_overrides(p_val)

    p_self = sub.add_parser("selftest", help="run built-in consistency checks")
    p_self.add_argument("--instances", type=int, default=60, help="random LP instances")
    p_self.add_argument("--states", type=int, default=25, help="random states per barrier")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        return _selftest(args.instances, args.states)

    try:
        raw = _read_raw(args.config)
        _apply_overrides(raw, args)
        cfg = validate_config(raw)
    except SdexitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(json.dumps(_echo(cfg), indent=2, default=dict))
        return 0

    try:
        summary = run_scenario(cfg, args.out)
    except OSError as exc:
        print(f"error: cannot write results to {args.out}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: cannot allocate the run's arrays: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, indent=2, allow_nan=False))
    return 0


def main() -> None:
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`): stdout to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":  # python -m sdexit.cli; python -m sdexit is the usual form
    main()

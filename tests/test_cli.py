"""Config schema validation, scenario runs, output artifacts, CLI subcommands."""

import csv
import dataclasses
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import sdexit.cli
from sdexit import (
    ConfigError,
    ProblemVariant,
    builtin_config_path,
    cli_main,
    derive_path_seed,
    instantiate,
    load_scenario,
    run_paths,
    run_scenario,
    validate_config,
)

BASE = {
    "model": {"name": "acc"},
    "scenario_barrier": 1,
    "variant": "ProblemI",
    "x0": [-0.5, 1.5],
    "T": 2.0,
    "dt": 0.1,
    "w": 1.0,
    "delta": 10.0,
    "n_paths": 5,
    "master_seed": 9,
}

# one config per model: the fields that differ from BASE
LINEAR = {
    "name": "linear",
    "params": {"A": [[0.0]], "d": [0.3], "B": [[0.1]], "sigma": [[1.0]], "u_lo": [-1.0], "u_hi": [1.0]},
}
ONE_D = {"scenario_barrier": {"Q": None, "c": [0.5], "d": 0.0}, "x0": [0.8]}
MODELS = {
    "acc": {},
    "linear": {"model": LINEAR, **ONE_D},
    "deterministic_1d": {"model": {"name": "deterministic_1d", "params": {"rate": 0.5}}, **ONE_D},
}


# config_echo.json of the linear and deterministic_1d runs in test_config_echo_round_trips:
# nested matrices and an inline "Q": null, which the shipped configs' artifacts never hold
_ECHO_TAIL = """  "scenario_barrier": {
    "Q": null,
    "c": [
      0.5
    ],
    "d": 0.0
  },
  "variant": "ProblemI",
  "x0": [
    0.8
  ],
  "T": 2.0,
  "dt": 0.1,
  "w": 1.0,
  "delta": 10.0,
  "strict_margin_eps": 1e-07,
  "n_paths": 5,
  "master_seed": 9,
  "z": 2.5,
  "mc_horizon": 20.0
}
"""
ECHO_TEXT = {
    "linear": """{
  "model": {
    "name": "linear",
    "params": {
      "A": [
        [
          0.0
        ]
      ],
      "d": [
        0.3
      ],
      "B": [
        [
          0.1
        ]
      ],
      "sigma": [
        [
          1.0
        ]
      ],
      "u_lo": [
        -1.0
      ],
      "u_hi": [
        1.0
      ]
    }
  },
""" + _ECHO_TAIL,
    "deterministic_1d": """{
  "model": {
    "name": "deterministic_1d",
    "params": {
      "rate": 0.5
    }
  },
""" + _ECHO_TAIL,
}


def _raw(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return raw


def _field_of(err: ConfigError) -> str:
    return err.field


# --- schema validation -------------------------------------------------------


def test_shipped_configs_validate():
    for name in (
        "scenario1_w1",
        "scenario1_whigh",
        "scenario2_w1",
        "scenario2_whigh",
        "scenario3_w1",
        "scenario3_whigh",
    ):
        cfg = load_scenario(builtin_config_path(name))
        assert cfg.T == 2.0
        assert cfg.dt == 0.001
        assert cfg.n_paths == 10000
        assert cfg.delta == 10.0


def test_shipped_scenario1_w1_fields():
    cfg = load_scenario(builtin_config_path("scenario1_w1"))
    assert cfg.variant == "ProblemI"
    assert cfg.x0 == (-0.5, 1.5)
    assert cfg.w == 1.0


def test_shipped_scenario3_whigh_fields():
    cfg = load_scenario(builtin_config_path("scenario3_whigh"))
    assert cfg.variant == "ProblemII"
    assert cfg.x0 == (10.0, 10.0)
    assert cfg.w == 1e12


def test_wrong_type_names_the_field():
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(dt="abc"))
    assert _field_of(exc.value) == "dt"
    assert "dt" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        validate_config([_raw()])
    assert _field_of(exc.value) == "config"


def test_unknown_field_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(surprise=1))
    assert _field_of(exc.value) == "surprise"


def test_missing_field_rejected():
    raw = _raw()
    del raw["w"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert _field_of(exc.value) == "w"


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(w=True))
    assert _field_of(exc.value) == "w"
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(n_paths=True))
    assert _field_of(exc.value) == "n_paths"


def test_numeric_domain_checks():
    for field, value in (
        ("dt", 0.0),
        ("dt", -1.0),
        ("delta", 0.0),
        ("T", -2.0),
        ("T", "soon"),
        ("n_paths", -1),
        ("n_paths", 2.5),
        ("master_seed", -4),
        ("w", -1.0),
        ("z", 0.0),
        ("mc_horizon", 0.0),
        ("w", float("nan")),
        ("delta", float("inf")),
        ("x0", 0.5),
    ):
        with pytest.raises(ConfigError) as exc:
            validate_config(_raw(**{field: value}))
        assert _field_of(exc.value) == field, (field, value)


def test_infinite_horizon_accepted_as_string():
    cfg = validate_config(_raw(T="inf"))
    assert cfg.T == "inf"
    assert cfg.mc_horizon == 20.0


def test_horizon_must_be_whole_number_of_steps():
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(T=2.0, dt=0.3))
    assert _field_of(exc.value) == "T"
    assert validate_config(_raw(T=0.3, dt=0.1)).T == 0.3  # 0.3 / 0.1 is 2.9999999999999996
    assert validate_config(_raw(T="inf", dt=0.3)).T == "inf"


def test_variant_must_be_known():
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(variant="ProblemIII"))
    assert _field_of(exc.value) == "variant"


def test_unknown_model_and_bad_params():
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(model={"name": "hovercraft"}))
    assert _field_of(exc.value) == "model.name"
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(model={"name": "acc", "params": {"mass": "heavy"}}))
    assert _field_of(exc.value) == "model.params.mass"
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(model={"name": "acc", "params": {"warp": 9}}))
    assert _field_of(exc.value) == "model.params"
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(model={"name": ["acc"]}))
    assert _field_of(exc.value) == "model.name"
    for model, field in (
        ("acc", "model"),
        ({"name": "acc", "extra": 1}, "model"),
        ({"name": "acc", "params": [5.0]}, "model.params"),
        ({"name": "acc", "params": {"mass": 0}}, "model.params"),
    ):
        with pytest.raises(ConfigError) as exc:
            validate_config(_raw(model=model))
        assert _field_of(exc.value) == field, model


def test_linear_schema_errors_name_the_field():
    params = LINEAR["params"]
    for bad, field in (
        ({key: val for key, val in params.items() if key != "B"}, "model.params"),
        ({**params, "C": [[1.0]]}, "model.params"),
        ({**params, "A": [[0.0, "x"]]}, "model.params.A[0][1]"),
        ({**params, "A": [[0.0, 1.0], [2.0]]}, "model.params.A[1]"),
        ({**params, "B": [[0.1], [0.1, 0.2]]}, "model.params.B[1]"),
        ({**params, "sigma": [[1.0], [], [1.0]]}, "model.params.sigma[1]"),
        ({**params, "A": []}, "model.params.A"),
    ):
        with pytest.raises(ConfigError) as exc:
            validate_config(_raw(**{**MODELS["linear"], "model": {"name": "linear", "params": bad}}))
        assert _field_of(exc.value) == field, bad


def test_scenario_barrier_forms():
    with pytest.raises(ConfigError):
        validate_config(_raw(scenario_barrier=7))
    with pytest.raises(ConfigError):
        validate_config(_raw(scenario_barrier=True))
    inline = {"Q": None, "c": [-0.45, 0.25], "d": 0.0}
    cfg = validate_config(_raw(scenario_barrier=inline))
    assert cfg.scenario_barrier["c"] == (-0.45, 0.25)
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(scenario_barrier={"c": [1.0, 0.0]}))
    assert _field_of(exc.value) == "scenario_barrier"
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(scenario_barrier={**inline, "R": [[1.0]]}))
    assert _field_of(exc.value) == "scenario_barrier"
    with pytest.raises(ConfigError, match="at least one state coordinate") as exc:
        validate_config(_raw(scenario_barrier={"Q": None, "c": [], "d": 0.0}))
    assert _field_of(exc.value) == "scenario_barrier"


def test_dimension_cross_checks():
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(x0=[-0.5, 1.5, 0.0]))
    assert _field_of(exc.value) == "x0"
    bad_barrier = {"Q": None, "c": [1.0, 0.0, 0.0], "d": 0.0}
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(scenario_barrier=bad_barrier))
    assert _field_of(exc.value) == "scenario_barrier"
    for q, field in (
        ([[1.0, 0.0], [0.0]], "scenario_barrier.Q[1]"),  # ragged: the first differing row
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "scenario_barrier.Q"),  # not square
        ([[1.0], [0.0]], "scenario_barrier.Q"),  # square rows needed, not len(Q) == len(c) alone
    ):
        with pytest.raises(ConfigError) as exc:
            validate_config(_raw(scenario_barrier={"Q": q, "c": [0.0, 0.0], "d": 0.5}))
        assert _field_of(exc.value) == field, q


# x0's squares overflow, so v(x0) = inf - inf + 0.5 is NaN: a value on no side of the level sets
NAN_AT_X0 = {
    "scenario_barrier": {"Q": [[1, 0], [0, -1]], "c": [0, 0], "d": 0.5},
    "x0": [1e200, 1e200],
}


def test_x0_must_be_interior():
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(x0=[0.0, 4.0]))  # h = 1: already on the target set
    assert _field_of(exc.value) == "x0"
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(**NAN_AT_X0))
    assert _field_of(exc.value) == "x0"


@pytest.mark.parametrize("T", [2.0, "inf"])
def test_dt_too_small_for_the_simulated_horizon(T):
    """horizon / dt overflows to inf: no grid, named as dt, at T or at mc_horizon for "inf"."""
    with pytest.raises(ConfigError) as exc:
        validate_config(_raw(T=T, dt=1e-320))
    assert _field_of(exc.value) == "dt"


def test_instantiate_builds_runnable_objects():
    model, spec, x0 = instantiate(validate_config(_raw()))
    assert model.n == 2
    assert spec.variant == ProblemVariant.PROBLEM_I
    assert np.array_equal(x0, [-0.5, 1.5])
    model, spec, x0 = instantiate(validate_config(_raw(**MODELS["deterministic_1d"])))
    assert (model.n, model.m, model.k) == (1, 1, 1)
    assert model.f1(x0[None, :]).tolist() == [[0.5]]
    assert spec.barrier.value(x0[None, :]).tolist() == [0.4]


def test_normal_form_is_read_only():
    cfg = validate_config(_raw(scenario_barrier={"Q": None, "c": [-0.45, 0.25], "d": 0.0}))
    model, _, x0 = instantiate(cfg)
    with pytest.raises(TypeError):
        cfg.model["params"]["mass"] = -5.0
    with pytest.raises(TypeError):
        cfg.scenario_barrier["c"] = (1.0, 0.0)
    with pytest.raises(TypeError):
        cfg.scenario_barrier["c"][0] = 1.0
    with pytest.raises(ValueError):
        x0[0] = 1.0
    with pytest.raises(ValueError):
        model.control_box.lo[0] = 5.0
    assert instantiate(cfg)[2].tolist() == [-0.5, 1.5]
    # the fields are as validated: a new config of the same fields builds the same model
    model, spec, x0 = instantiate(dataclasses.replace(cfg))
    assert model.control_box.lo.tolist() == [-1.0] and x0.tolist() == [-0.5, 1.5]
    assert spec.barrier.value(x0[None, :]).tolist() == [0.6]


def test_each_config_is_built_once(tmp_path, monkeypatch):
    builds = []
    build, params = sdexit.cli._MODELS["acc"]

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setitem(sdexit.cli._MODELS, "acc", (counted, params))
    assert cli_main(["run", _write(tmp_path, _raw()), "--out", str(tmp_path / "run")]) == 0
    assert len(builds) == 1
    # perfbench's set-up and rounds: load, instantiate, then run twice
    cfg = load_scenario(_raw())
    objects = instantiate(cfg)
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    assert len(builds) == 2
    assert instantiate(cfg) is objects


def test_equal_configs_keep_their_signed_zeros(tmp_path):
    """x0 = [0.0, 1.5] and [-0.0, 1.5] make equal configs, built apart: each keeps its x1."""
    for x in ("0.0", "-0.0"):
        run_scenario(validate_config(_raw(x0=[float(x), 1.5], n_paths=0)), tmp_path / x)
    rows = [(tmp_path / x / "trajectory.csv").read_text().splitlines()[1] for x in ("0.0", "-0.0")]
    assert [row.split(",")[1] for row in rows] == ["0", "-0"]


# --- run_scenario outputs ----------------------------------------------------


def test_run_writes_all_artifacts(tmp_path):
    cfg = validate_config(_raw())
    out = run_scenario(cfg, tmp_path)
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "mc_summary.json").exists()
    assert (tmp_path / "config_echo.json").exists()
    assert out["n_paths"] == 5
    summary = json.loads((tmp_path / "mc_summary.json").read_text())
    assert summary["n_target"] + summary["n_unsafe"] + summary["n_timeout"] == 5
    assert 0.0 <= summary["ci_lo"] <= summary["estimate"] <= summary["ci_hi"] <= 1.0
    assert summary["cert_t0"]["status"] == "feasible"
    assert summary["bound_finite_t0"] is not None


def test_trajectory_csv_schema_and_grid(tmp_path):
    run_scenario(validate_config(_raw()), tmp_path)
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "t", "x1", "x2", "u1", "a", "b", "status", "barrier",
        "bound_finite", "bound_infinite",
    ]
    body = rows[1:]
    assert len(body) == 21  # T=2, dt=0.1
    times = [float(r[0]) for r in body]
    assert times == [i * 0.1 for i in range(21)]
    assert body[0][6] in ("feasible", "fallback")
    # full precision round trip: h(x0) = 0.6 must be stored exactly
    assert float(body[0][7]) == 0.6


def test_csv_floats_round_trip_17_digits(tmp_path):
    cfg = validate_config(_raw(master_seed=31))
    run_scenario(cfg, tmp_path)
    from sdexit import simulate_path
    model, spec, x0 = instantiate(cfg)
    traj = simulate_path(model, spec, x0, cfg.dt, 2.0, path_seed=31)
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        header, *body = list(csv.reader(fh))
    barrier = np.array([float(row[header.index("barrier")]) for row in body])
    assert barrier.tobytes() == traj.values.tobytes()
    for i, row in enumerate(body):
        assert float(row[1]) == traj.states[i][0]
        assert float(row[2]) == traj.states[i][1]


def test_timeout_prints_null_exit_time(tmp_path, capsys):
    """A path still live at T: the run's JSON says Timeout, and null where the arrays hold NaN."""
    cfg = str(builtin_config_path("scenario1_w1"))
    argv = ["run", cfg, "--paths", "0", "--horizon", "0.001", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"outcome": "Timeout", "exit_time": None}


def test_no_mc_summary_when_paths_zero(tmp_path):
    run_scenario(validate_config(_raw(n_paths=0)), tmp_path)
    assert (tmp_path / "trajectory.csv").exists()
    assert not (tmp_path / "mc_summary.json").exists()


def test_fallback_rows_have_empty_certificate_columns(tmp_path):
    cfg = validate_config(_raw(delta=1e-8, n_paths=1, T=0.3))
    run_scenario(cfg, tmp_path)
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        body = list(csv.reader(fh))[1:]
    assert body[0][6] == "fallback"
    assert body[0][4] == "" and body[0][5] == ""
    assert body[0][8] == "" and body[0][9] == ""
    summary = json.loads((tmp_path / "mc_summary.json").read_text())
    assert summary["cert_t0"] == {"a": None, "b": None, "status": "fallback"}
    assert summary["bound_finite_t0"] is None


def test_infinite_horizon_uses_mc_surrogate(tmp_path):
    cfg = validate_config(_raw(T="inf", mc_horizon=1.0, n_paths=3))
    run_scenario(cfg, tmp_path)
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        body = list(csv.reader(fh))[1:]
    assert len(body) == 11  # mc_horizon/dt + 1
    feasible = [r for r in body if r[6] == "feasible"]
    assert feasible
    assert all(r[8] == "" for r in feasible)  # no finite bound without a horizon
    assert all(r[9] != "" for r in feasible)
    echo = json.loads((tmp_path / "config_echo.json").read_text())
    assert echo["T"] == "inf"


def _diff_artifacts():
    tool = Path(__file__).resolve().parents[1] / "tools" / "diff_artifacts.py"
    spec = importlib.util.spec_from_file_location("diff_artifacts", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diff_artifacts_names_column_and_row(tmp_path, capsys):
    diff_artifacts = _diff_artifacts()
    cfg = load_scenario(_raw())
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    assert diff_artifacts.main(dirs) == 0
    assert all(line.endswith(": same") for line in capsys.readouterr().out.splitlines())

    path = tmp_path / "b" / "trajectory.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    row, col = 8, rows[0].index("x2")  # data row 7
    before = float(rows[row][col])
    after = math.nextafter(before, math.inf)
    rows[row][col] = repr(after)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert diff_artifacts.main(dirs) == 1
    differing = [line for line in capsys.readouterr().out.splitlines() if not line.endswith("same")]
    assert len(differing) == 1
    assert differing[0].startswith("trajectory.csv x2: max |diff| ")
    assert ", first at row 7 " in differing[0]
    assert float(differing[0].split()[4].rstrip(",")) == after - before


def test_diff_artifacts_reads_the_config_echo(tmp_path, capsys):
    """At a finite T, mc_horizon changes no output but the echo, and the tool names it."""
    for horizon in ("20.0", "30.0"):
        run_scenario(validate_config(_raw(mc_horizon=float(horizon))), tmp_path / horizon)
    assert _diff_artifacts().main([str(tmp_path / "20.0"), str(tmp_path / "30.0")]) == 1
    lines = capsys.readouterr().out.splitlines()
    differing = [line for line in lines if not line.endswith(": same")]
    assert differing == ["config_echo.json mc_horizon: max |diff| 10.0 (20.0 vs 30.0)"]


def test_config_echo_round_trips(tmp_path):
    # each model's params come in its builder's argument order
    for name, keys in (
        ("acc", ["f0", "f1", "f2", "mass", "lead_velocity", "u_lo", "u_hi"]),
        ("linear", ["A", "d", "B", "sigma", "u_lo", "u_hi"]),
        ("deterministic_1d", ["rate"]),
    ):
        cfg = validate_config(_raw(**MODELS[name], strict_margin_eps=1e-7, z=2.5))
        run_scenario(cfg, tmp_path / name)
        echo = tmp_path / name / "config_echo.json"
        assert load_scenario(echo) == cfg, name
        assert list(json.loads(echo.read_text())["model"]["params"]) == keys
        if name in ECHO_TEXT:
            assert echo.read_text() == ECHO_TEXT[name]


@pytest.mark.parametrize("name", ["scenario2_w1", "linear"])
def test_closed_loop_ignores_weight_delta_and_margin(name):
    """w, delta and strict_margin_eps shape the certificate and the bound, not the controller."""
    raw = _raw(**MODELS["linear"])
    if name == "scenario2_w1":
        raw = json.loads(builtin_config_path(name).read_text())
    loops, certificates = set(), set()
    for w, delta, eps in itertools.product((0.0, 1.0, 1e12), (0.5, 10.0), (1e-9, 1e-6, 1e-3)):
        cfg = validate_config({**raw, "w": w, "delta": delta, "strict_margin_eps": eps})
        model, spec, x0 = instantiate(cfg)
        seeds = [derive_path_seed(cfg.master_seed, i) for i in range(8)]
        res = run_paths(model, spec, x0, cfg.dt, cfg.T, seeds, record=True)
        loop = (res.kind, res.exit_time, res.blowup, res.states, res.controls, res.values)
        loops.add(b"".join(arr.tobytes() for arr in loop))
        certificates.add(b"".join(arr.tobytes() for arr in (res.cert_a, res.cert_b)))
    assert len(loops) == 1
    assert len(certificates) > 1  # the three fields do reach the certificate LP


# --- command-line entry points ----------------------------------------------


def _write(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_run_happy_path(tmp_path, capsys):
    rc = cli_main(["run", _write(tmp_path, _raw()), "--out", str(tmp_path / "res")])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["n_paths"] == 5
    assert (tmp_path / "res" / "trajectory.csv").exists()


def test_cli_overrides_reach_the_artifacts(tmp_path, capsys):
    for weight_flag in ("-w", "--weight"):
        out = tmp_path / weight_flag
        rc = cli_main(
            [
                "run", _write(tmp_path, _raw()), "--out", str(out),
                "--paths", "2", "--seed", "77", "--dt", "0.2", weight_flag, "5.0",
                "--delta", "4.0", "--horizon", "1.0",
            ]
        )
        assert rc == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["n_paths"] == 2
        assert echo["master_seed"] == 77
        assert echo["dt"] == 0.2
        assert echo["w"] == 5.0
        assert echo["delta"] == 4.0
        assert echo["T"] == 1.0


def test_cli_rejects_bad_override_like_bad_file(tmp_path, capsys):
    rc = cli_main(["run", _write(tmp_path, _raw()), "--horizon", "soon"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "T" in err


def test_cli_run_horizon_off_grid_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "res"
    rc = cli_main(
        ["run", str(builtin_config_path("scenario1_w1")), "--dt", "0.3", "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "T" in err
    assert not out.exists()


def test_cli_validate_prints_normal_form(tmp_path, capsys):
    rc = cli_main(["validate", _write(tmp_path, _raw())])
    assert rc == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["model"]["params"]["mass"] == 1650.0
    assert echo["strict_margin_eps"] == 1e-6


def test_cli_validate_bad_config_exits_2(tmp_path, capsys):
    rc = cli_main(["validate", _write(tmp_path, _raw(dt="abc"))])
    assert rc == 2
    assert "dt" in capsys.readouterr().err


def test_cli_unreadable_or_malformed_file(tmp_path, capsys):
    rc = cli_main(["run", str(tmp_path / "missing.json")])
    assert rc == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc = cli_main(["run", str(bad)])
    assert rc == 2
    capsys.readouterr()
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff" + json.dumps(_raw()).encode())
    deep = tmp_path / "deep.json"
    deep.write_text('{"x0": ' + "[" * 100_000 + "]" * 100_000 + "}")
    top_array = tmp_path / "array.json"
    top_array.write_text(json.dumps([_raw()]))
    for path in (undecodable, deep, top_array):
        rc = cli_main(["validate", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: config field 'config'")


RAGGED_A = {"model": {"name": "linear", "params": {**LINEAR["params"], "A": [[0, 1], [2]]}}}
OVERFLOW_FIELD = {"model": {"name": "acc", "params": {"f1": 1e308, "f2": 1e308}}}  # f1(x) overflows


@pytest.mark.parametrize(
    "command, raw, flags, field",
    [
        ("validate", _raw(**NAN_AT_X0), [], "x0"),
        ("run", _raw(**NAN_AT_X0), [], "x0"),
        ("validate", _raw(**{**MODELS["linear"], **RAGGED_A}), [], "model.params.A[1]"),
        ("validate", _raw(), ["--dt", "1e-320"], "dt"),
        ("validate", _raw(), ["--dt", "1e-320", "--horizon", "inf"], "dt"),
        ("run", _raw(), ["--dt", "1e-320", "--horizon", "inf"], "dt"),
        ("validate", _raw(**OVERFLOW_FIELD), [], "model.params"),
        ("validate", _raw(w=float("nan")), [], "w"),  # json writes the NaN literal
        ("run", _raw(), ["--delta", "inf"], "delta"),
    ],
    ids=[
        "nan x0 validate", "nan x0 run", "ragged A", "dt 1e-320", "dt 1e-320 inf", "dt 1e-320 inf run",
        "overflowing field", "nan literal", "delta inf run",
    ],
)
def test_cli_config_errors_exit_2_naming_the_field(tmp_path, capsys, command, raw, flags, field):
    out = tmp_path / "res"
    out_flags = ["--out", str(out)] if command == "run" else []
    rc = cli_main([command, _write(tmp_path, raw), *flags, *out_flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}'")
    assert err.count("\n") == 1  # one line: no warning, no traceback, no wrapped array
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--horizon", "1e14"], ["--horizon", "1e15"], ["--dt", "1e-300"]],
    ids=["horizon 1e14", "horizon 1e15", "dt 1e-300"],
)
def test_cli_run_too_large_to_allocate_exits_2(tmp_path, capsys, flags):
    # 1e17 steps: the recorded path alone is 1.39 EiB, beyond the largest virtual address
    # space of any 64-bit machine (2**57 bytes, x86-64 five-level paging): it fails anywhere.
    # At 1e18 and 2e300 steps numpy cannot even size the array and raises ValueError.
    cfg = str(builtin_config_path("scenario1_w1"))
    out = tmp_path / "res"
    rc = cli_main(["run", cfg, *flags, "--paths", "0", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot allocate the run's arrays: ")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    rc = cli_main(["run", _write(tmp_path, _raw()), "--out", str(taken)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(taken) in err
    assert taken.read_text() == "a file, not a directory"


def test_cli_selftest_passes(capsys):
    rc = cli_main(["selftest", "--instances", "40", "--states", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out

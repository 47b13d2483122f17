"""Package surface: the public names and the ``python -m sdexit`` entry point."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import sdexit
from sdexit import builtin_config_path, cli_main


def test_every_exported_name_is_public_in_a_submodule():
    """The package exports exactly the union of its modules' __all__ lists."""
    listed = []
    for info in pkgutil.iter_modules(sdexit.__path__):
        if info.name != "__main__":  # importing it runs the command line
            listed += importlib.import_module(f"sdexit.{info.name}").__all__
    assert len(set(listed)) == len(listed)  # no name is public in two modules
    assert sorted(sdexit.__all__) == sorted(listed)


def _python_m_sdexit_env():
    src = str(Path(sdexit.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def _python_m_sdexit(*args, module="sdexit"):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=_python_m_sdexit_env(),
        timeout=120,
    )


def test_python_m_sdexit_is_the_command_line(tmp_path, capsys):
    cfg = str(builtin_config_path("scenario1_w1"))
    done = _python_m_sdexit("validate", cfg)
    assert done.returncode == 0
    assert cli_main(["validate", cfg]) == 0
    assert done.stdout == capsys.readouterr().out
    assert json.loads(done.stdout)["T"] == 2.0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(Path(cfg).read_text()), "dt": "abc"}))
    done = _python_m_sdexit("validate", str(bad))
    assert done.returncode == 2
    assert done.stdout == "" and "dt" in done.stderr


def test_python_m_sdexit_cli_runs_the_command_line():
    cfg = str(builtin_config_path("scenario1_w1"))
    done = _python_m_sdexit("validate", cfg, module="sdexit.cli")
    assert done.returncode == 0
    assert done.stdout == _python_m_sdexit("validate", cfg).stdout
    assert json.loads(done.stdout)["T"] == 2.0


def test_closed_stdout_ends_quietly(tmp_path):
    # a 160-dimensional linear model echoes about 0.3 MB, far more than a pipe
    # holds, so the command is still writing when its reader leaves
    n = 160
    cfg = json.loads(builtin_config_path("scenario1_w1").read_text())
    cfg["model"] = {
        "name": "linear",
        "params": {
            "A": [[0.0] * n] * n,
            "d": [0.0] * n,
            "B": [[1.0]] * n,
            "sigma": [[1.0]] * n,
            "u_lo": [-1.0],
            "u_hi": [1.0],
        },
    }
    cfg["scenario_barrier"] = {"c": [1.0] + [0.0] * (n - 1), "d": 0.5}
    cfg["x0"] = [0.0] * n
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdexit", "validate", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_python_m_sdexit_env(),
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == ""
    assert proc.returncode == 2

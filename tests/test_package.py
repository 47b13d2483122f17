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
    listed = set()
    for info in pkgutil.iter_modules(sdexit.__path__):
        if info.name != "__main__":
            listed.update(importlib.import_module(f"sdexit.{info.name}").__all__)
    assert sorted(set(sdexit.__all__) - listed) == []


def _python_m_sdexit(*args):
    src = str(Path(sdexit.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "sdexit", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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

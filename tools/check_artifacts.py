"""Check that ``sdexit run`` writes the same artifact bytes as recorded.

Runs ``python -m sdexit run`` on each shipped config in
``tools/artifact_hashes.json``, as shipped and with ``--horizon inf``, one
run at a time in a temporary directory, with the package imported from this
checkout's ``src``.  Each artifact's sha256, cut to the table's number of hex
digits, is compared with the table.  Prints one line per artifact and exits
1 naming every file that differs or is missing, or any run that fails; exits
0 when all match.

    python tools/check_artifacts.py

The table holds for the numpy and Python versions recorded in it: numpy
promises neither the same random streams nor the same summation order across
versions.  A change that alters artifact bytes on purpose updates the table
and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tools" / "artifact_hashes.json"
CONFIGS = ROOT / "src" / "sdexit" / "configs"
EXTRA_ARGS = {"shipped": [], "inf": ["--horizon", "inf"]}


def main() -> int:
    table = json.loads(TABLE.read_text())
    digits = table["sha256_hex_digits"]
    made_with = (table["numpy"], table["python"])
    running = (np.__version__, platform.python_version())
    if running != made_with:
        print(
            f"note: table made with numpy {made_with[0]}, Python {made_with[1]}; "
            f"running numpy {running[0]}, Python {running[1]}"
        )
    src = str(ROOT / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p),
    }
    failed = []
    with tempfile.TemporaryDirectory(prefix="sdexit-artifacts-") as tmp:
        for name, runs in table["runs"].items():
            for label, expected in runs.items():
                out = Path(tmp) / f"{name}-{label}"
                cmd = [sys.executable, "-m", "sdexit", "run", str(CONFIGS / f"{name}.json")]
                cmd += [*EXTRA_ARGS[label], "--out", str(out)]
                done = subprocess.run(cmd, capture_output=True, text=True, env=env)
                if done.returncode != 0:
                    print(f"{name} {label} FAILED with exit {done.returncode}\n{done.stderr}")
                    failed.append(f"{name} {label} (run failed)")
                    continue
                for fname, want in expected.items():
                    got = _digest(out / fname)[:digits]
                    verdict = "ok" if got == want else f"DIFFERS from {want}"
                    print(f"{name} {label} {fname} {got} {verdict}")
                    if got != want:
                        failed.append(f"{name} {label} {fname}")
    if failed:
        print(f"{len(failed)} mismatch(es) against {TABLE.name}:")
        for item in failed:
            print(f"  {item}")
        return 1
    print(f"all artifacts match {TABLE.name}")
    return 0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


if __name__ == "__main__":
    sys.exit(main())

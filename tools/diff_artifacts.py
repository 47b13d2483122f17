"""Report how two ``sdexit run`` output directories differ, value by value.

    python tools/diff_artifacts.py DIR_A DIR_B

For each column of ``trajectory.csv`` and each key of ``mc_summary.json`` and
``config_echo.json`` (nested keys joined with dots, a JSON array one value),
prints the largest absolute difference between the two directories and the
first data row (0-based) that differs.
A missing value (an empty cell or a JSON null), a missing file, column or
key, or a text value that changed counts as an infinite difference.  Exits 1
if anything differs and 0 if nothing does.

``tools/check_artifacts.py`` says which artifacts changed their bytes; this
tool says by how much, given the outputs of the two versions, for example
``sdexit run`` from two checkouts of the same config and seed.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _csv_columns(path: Path) -> dict[str, list[str]] | None:
    if not path.exists():
        return None
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _json_keys(path: Path) -> dict[str, list] | None:
    if not path.exists():
        return None
    flat: dict[str, list] = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}.{key}" if prefix else key, item)
        else:
            flat[prefix] = [value]

    walk("", json.loads(path.read_text()))
    return flat


def _distance(x, y) -> float:
    """|x - y| for two numbers; inf when either is missing or is not a number."""
    try:
        d = abs(float(x) - float(y))
    except (TypeError, ValueError):
        return math.inf
    return d if d == d else math.inf  # "nan" cells, or inf - inf


def _compare(fname: str, name: str, a: list, b: list) -> bool:
    """Print one line for a column or key; True when its values differ."""
    common = min(len(a), len(b))
    rows = [i for i in range(common) if a[i] != b[i]]
    largest = max((_distance(a[i], b[i]) for i in rows), default=0.0)
    if len(a) != len(b):
        rows.append(common)
        largest = math.inf
    if not rows:
        print(f"{fname} {name}: same")
        return False
    first = rows[0]
    line = f"{fname} {name}: max |diff| {largest!r}"
    if fname.endswith(".csv"):
        line += f", first at row {first}"
    if first < common:
        line += f" ({a[first]!r} vs {b[first]!r})"
    if len(a) != len(b):
        line += f"; {len(a)} rows against {len(b)}"
    print(line)
    return True


def diff_dirs(dir_a: Path, dir_b: Path) -> bool:
    """Print the per-column and per-key report; True when anything differs."""
    differs = False
    for fname, read in (
        ("trajectory.csv", _csv_columns),
        ("mc_summary.json", _json_keys),
        ("config_echo.json", _json_keys),
    ):
        a, b = read(dir_a / fname), read(dir_b / fname)
        if a is None or b is None:
            if a is not b:
                print(f"{fname}: only in {dir_a if b is None else dir_b}")
                differs = True
            continue
        for name in [*a, *(k for k in b if k not in a)]:
            if name not in a or name not in b:
                print(f"{fname} {name}: only in {dir_a if name in a else dir_b}")
                differs = True
            else:
                differs |= _compare(fname, name, a[name], b[name])
    return differs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/diff_artifacts.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(p) for p in argv)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    return 1 if diff_dirs(dir_a, dir_b) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

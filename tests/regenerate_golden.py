"""Regenerate the golden outputs of ``tests/test_golden.py``.

Runs each command of ``GOLDEN_RUNS`` in-process, on its default config, in
a temporary working directory with ``--out out``, and copies the files it
writes into ``tests/golden/<case>/``.  Run it from the repository root:

    PYTHONPATH=src python3 tests/regenerate_golden.py [case ...]

With case names it regenerates those cases only.  Before it replaces a
case's files it prints the worst relative deviation of the new numbers from
the old ones, with the file and both values.

Only regenerate on purpose: a change to the numerics that moves an output
beyond the golden test's tolerance should say so, and by how much.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

#: case name -> the command's arguments after ``--out out``
GOLDEN_RUNS = {
    "rabi": ["rabi"],
    "qfi": ["qfi"],
    "effective": ["effective"],
    "robustness": ["robustness"],
    "sensitivity": ["sensitivity"],
    "dd": ["dd"],
    "calibrate": ["calibrate"],
    "rabi-seed5-shots100000": ["--seed", "5", "--shots", "100000", "rabi"],
    "dd-seed3-shots2000": ["--seed", "3", "--shots", "2000", "dd"],
}


def run_case(args: list[str], workdir: Path) -> Path:
    """Run one command in ``workdir`` and return its output directory."""
    from click.testing import CliRunner

    from floquet_sensor.cli import main

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        res = CliRunner().invoke(main, ["--out", "out", *args], catch_exceptions=False)
    finally:
        os.chdir(cwd)
    if res.exit_code != 0:
        raise RuntimeError(f"{args} exited {res.exit_code}: {res.output}")
    return workdir / "out"


def _numbers(path: Path) -> list[tuple[str, float]]:
    """(location, value) of every number in a golden CSV or JSON file."""
    if path.suffix == ".json":
        found = []

        def walk(node, where):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{where}.{key}")
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, f"{where}[{i}]")
            elif isinstance(node, float):
                found.append((where, node))

        walk(json.loads(path.read_text()), path.name)
        return found
    found = []
    for i, row in enumerate(path.read_text().splitlines()[1:], start=2):
        for j, cell in enumerate(row.split(",")):
            try:
                found.append((f"{path.name}:{i}:{j + 1}", float(cell)))
            except ValueError:
                pass
    return found


def worst_deviation(new: Path, old: Path) -> str:
    """The worst relative deviation of the numbers in ``new`` from those in
    ``old``, as "<rel> at <file:row:column> (new <x>, old <y>)"."""
    if not old.is_dir():
        return "new case"
    names = sorted(p.name for p in new.iterdir())
    if names != sorted(p.name for p in old.iterdir()):
        return "different file set"
    worst = (0.0, "", 0.0, 0.0)
    for name in names:
        got, want = _numbers(new / name), _numbers(old / name)
        if [w for w, _ in got] != [w for w, _ in want]:
            return f"different layout of {name}"
        for (where, x), (_, y) in zip(got, want):
            if x == y:
                continue
            rel = abs(x - y) / abs(y) if y and math.isfinite(y) else math.inf
            if rel > worst[0]:
                worst = (rel, where, x, y)
    if not worst[0]:
        return "identical numbers"
    rel, where, x, y = worst
    return f"{rel:.2g} at {where} (new {x!r}, old {y!r})"


def main(cases: list[str]) -> None:
    for case in cases or GOLDEN_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(GOLDEN_RUNS[case], Path(tmp))
            target = GOLDEN / case
            print(f"{case}: {worst_deviation(out, target)}", file=sys.stderr)
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(out, target)
        print(f"{case}: {sorted(p.name for p in target.iterdir())}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])

"""Regenerate the golden outputs of ``tests/test_golden.py``.

Runs each command of ``GOLDEN_RUNS`` in-process, on its default config, in
a temporary working directory with ``--out out``, and copies the files it
writes into ``tests/golden/<case>/``.  Run it from the repository root:

    PYTHONPATH=src python3 tests/regenerate_golden.py

Only regenerate on purpose: a change to the numerics that moves an output
beyond the golden test's tolerance should say so, and by how much.
"""

from __future__ import annotations

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


def main() -> None:
    for case, args in GOLDEN_RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(args, Path(tmp))
            target = GOLDEN / case
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(out, target)
        print(f"{case}: {sorted(p.name for p in target.iterdir())}", file=sys.stderr)


if __name__ == "__main__":
    main()

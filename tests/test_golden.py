"""Default and seeded command outputs against the pinned files in ``tests/golden/``.

Every number agrees to 1e-12 relative; headers, keys, strings, booleans and
the file set agree exactly.  ``tests/regenerate_golden.py`` writes the files.
"""

import json
import math

import pytest

from regenerate_golden import GOLDEN, GOLDEN_RUNS, run_case

REL = 1e-12


def _close(a: str, b: str) -> bool:
    """Two CSV cells: equal text, or numbers within ``REL`` of each other."""
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=REL, abs_tol=0.0)


def _compare_json(got, want, where: str) -> None:
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("case", list(GOLDEN_RUNS))
def test_command_outputs_match_golden(case, tmp_path):
    out = run_case(GOLDEN_RUNS[case], tmp_path)
    want_dir = GOLDEN / case
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        got_text, want_text = (out / name).read_text(), (want_dir / name).read_text()
        if name.endswith(".json"):
            _compare_json(json.loads(got_text), json.loads(want_text), name)
            continue
        got_rows, want_rows = got_text.splitlines(), want_text.splitlines()
        assert got_rows[0] == want_rows[0], f"{name}: header"
        assert len(got_rows) == len(want_rows), f"{name}: row count"
        for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
            gc, wc = g.split(","), w.split(",")
            assert len(gc) == len(wc) and all(map(_close, gc, wc)), (name, i, g, w)

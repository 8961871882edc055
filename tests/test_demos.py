"""The narrative scripts in demos/ run to completion against the library."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of a demo's stdout, for demos whose printed numbers are pinned
STDOUT_SHA256 = {
    "03_city_scenario": "b4a5cc2dcd8af8267f6763ada9870ba4a22f8e14682c9733df651dd0a89407a9",
}


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        # the warning filters pyproject.toml sets for the test suite
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::ResourceWarning",
         str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path, "MPLBACKEND": "Agg"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if script.stem in STDOUT_SHA256:
        got = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert got == STDOUT_SHA256[script.stem], proc.stdout

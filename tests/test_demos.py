"""The narrative scripts in demos/ run to completion against the library."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path, "MPLBACKEND": "Agg"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

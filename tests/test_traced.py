"""Smoke test of the benchmark's traced run, ``perfbench/traced.py``.

The traced run wraps, by name, the layer functions ``cli.cmd_run`` calls
(its ``LAYERS`` table). This checks that those names and call shapes still
hold: a plain run calls every wrapped name through ``cli``, and the traced
run exits 0, writes the outputs the plain run writes and times every layer.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from v2grid import cli
from v2grid.cli import main

ROOT = Path(__file__).resolve().parents[1]


def traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("traced", ROOT / "perfbench" / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def recorder(called: set, name: str):
    fn = getattr(cli, name)

    def record(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)

    return record


def test_traced_run_matches_plain_run(tmp_path, monkeypatch):
    records, areas, demand = (tmp_path / n for n in ("records.csv", "areas.geojson", "demand.csv"))
    assert main([
        "synth", "--seed", "3", "--users", "20", "--days", "6", "--out", str(records),
        "--areas-out", str(areas), "--demand-out", str(demand),
    ]) == 0
    inputs = [str(records), str(areas), str(demand)]
    flags = ["--min-days", "3", "--events-csv", "--stays-csv"]
    # the plain run calls every name the traced run wraps, through cli
    layers = traced_layers()
    names = {name for group in layers.values() for name in group}
    called: set = set()
    for name in names:
        monkeypatch.setattr(cli, name, recorder(called, name))
    assert main(["run", *inputs, "--out-dir", str(tmp_path / "plain"), *flags]) == 0
    assert called == names

    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), *inputs,
         "--out-dir", str(tmp_path / "traced"), *flags, "--spans-out", str(spans)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    def outputs(name):
        return json.loads((tmp_path / name / "manifest.json").read_text())["outputs"]

    plain = outputs("plain")
    assert len(plain) == 9
    assert outputs("traced") == plain
    traced = json.loads(spans.read_text())
    counts = traced["counts"]
    assert counts["ingest.stays_retained"] > 0 and counts["engine.events"] > 0
    # the per-layer counters see the event columns: iterating them yields
    # every event, and every chunk passes through cli._simulate_chunk
    assert counts["aggregate.step_visits"] > 0 and counts["cli.chunks"] >= 1
    assert set(layers) <= {name for name, *_ in traced["spans"]}

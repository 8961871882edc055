"""Output bytes of a fixed small run, pinned so that a refactor that changes
any byte of any result file fails here."""

from __future__ import annotations

import hashlib
import json

from v2grid.cli import main

# `v2grid synth --users 20 --seed 3` then `v2grid run ... --events-csv
# --stays-csv`; update only for a deliberate change of the output format
GOLDEN = {
    "area_energy.csv": "ad1f7bcc4bc656c6cfb8cbc5c05e5a499c198d3e5a3f817653e527ebae4631f6",
    "area_peak.csv": "73670f82d2ce1a7834b0b7b5b1bf99c808d90989baacaac65385a924d59cedeb",
    "area_profile.csv": "5c64375c11f868596be7437a09055a0b00c1e146ab0aadcdc6669aaf06ba3146",
    "coverage.csv": "13009f0173cf9490fcb64f846eff8417e808981c2bf9e3014bb688cabbd75883",
    "coverage_hist.csv": "eb407bcfc1d8e686f98c88fa1d39b38224f710221394a1ad82df9c1d3e8a501b",
    "events.csv": "47651f32b050ae0bbc083015066ab5771e3b6599f2d08599eea233e1e9cfacd1",
    "metrics.geojson": "5441ed00927eefa38abf79351f302dafe207428c88f5e2269e37a5444451d698",
    # re-recorded when the p-value stopped calling scipy: its closed form
    # agrees with scipy to about 1e-13 relative, not to the bit, and moved
    # `p_value` from 0.04941361813833185 to 0.04941361813833181
    "regression.txt": "46e6e09ca1d6247fd4fe63361af854d0f59d5aa98e1253a67db634aefda86107",
    "stays.csv": "0b5a9c0e6b865d73c36b823ea74dd0215ab7db57686446a8e8ad69d1534cdc92",
}


def test_golden_output_digests(tmp_path):
    records, areas, demand = (tmp_path / n for n in ("records.csv", "areas.geojson", "demand.csv"))
    out_dir = tmp_path / "out"
    assert main([
        "synth", "--users", "20", "--seed", "3", "--out", str(records),
        "--areas-out", str(areas), "--demand-out", str(demand),
    ]) == 0
    assert main([
        "run", str(records), str(areas), str(demand), "--out-dir", str(out_dir),
        "--events-csv", "--stays-csv",
    ]) == 0
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["outputs"] == GOLDEN
    assert manifest["counts"]["events"] == 608 and manifest["counts"]["stays"] == 378

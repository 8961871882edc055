"""Output checker for one `v2grid run` output directory.

`check_outputs` returns a list of failure messages; an empty list means every
check passed. The checks:

* the seven result files and ``manifest.json`` exist, and the manifest's
  sha256 digests match the files (dumps included when present);
* the manifest counts equal what the generator planted: rows (skipped rows
  included), skipped rows and users;
* per area, the sum of ``area_energy.csv`` ``e_ev_kwh`` over the simulated
  days equals ``coverage.csv`` times the day count (relative 1e-9);
* ``area_peak.csv`` equals the max of ``area_profile.csv`` per area-day;
* ``metrics.geojson`` agrees with both of these;
* ``events.csv`` has one row per manifest event, and ``stays.csv`` holds
  stays of exactly the retained users (``counts.stays`` counts the stays of
  every user before the activity filter, so it bounds the row count).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Optional

RESULT_FILES = (
    "area_energy.csv", "area_peak.csv", "area_profile.csv", "coverage.csv",
    "coverage_hist.csv", "regression.txt", "metrics.geojson",
)
DUMP_FILES = ("events.csv", "stays.csv")
REL_TOL = 1e-9
UNASSIGNED = "_unassigned"


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_outputs(
    out_dir: Path, expected: dict, dumps: bool, retained_stays: Optional[int] = None
) -> list[str]:
    """Check one output directory against the planted input `expected`
    (keys rows, skipped, users). `retained_stays`, when known, is the exact
    number of rows stays.csv must hold."""
    names = RESULT_FILES + (DUMP_FILES if dumps else ())
    missing = [n for n in names + ("manifest.json",) if not (out_dir / n).is_file()]
    if missing:
        return [f"missing output files: {', '.join(missing)}"]
    failures: list[str] = []
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        for name in names:
            if manifest["outputs"].get(name) != sha256(out_dir / name):
                failures.append(f"{name}: sha256 differs from the manifest")
        _check(out_dir, manifest, expected, dumps, retained_stays, failures)
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return failures


def _check(out_dir, manifest, expected, dumps, retained_stays, failures) -> None:
    counts = manifest["counts"]
    for key, want in (("rows_read", expected["rows"]), ("rows_skipped", expected["skipped"]),
                      ("users_total", expected["users"])):
        if counts[key] != want:
            failures.append(f"manifest counts.{key} = {counts[key]}, planted {want}")

    n_days = counts["simulated_days"]
    energy_sum: dict[str, float] = {}
    for row in _rows(out_dir / "area_energy.csv"):
        if row["area_id"] != UNASSIGNED:
            energy_sum[row["area_id"]] = energy_sum.get(row["area_id"], 0.0) + float(row["e_ev_kwh"])
    coverage = {r["area_id"]: r for r in _rows(out_dir / "coverage.csv")}
    if not set(energy_sum) <= set(coverage):
        failures.append("area_energy.csv has areas missing from coverage.csv")
    for area_id, row in coverage.items():
        mean = energy_sum.get(area_id, 0.0) / n_days if n_days else 0.0
        if not _close(mean, float(row["e_ev_kwh"])):
            failures.append(
                f"{area_id}: area_energy.csv sum / {n_days} days = {mean!r}, "
                f"coverage.csv e_ev_kwh = {row['e_ev_kwh']}")

    profile_max: dict[tuple[str, str], float] = {}
    for row in _rows(out_dir / "area_profile.csv"):
        key = (row["area_id"], row["day"])
        profile_max[key] = max(profile_max.get(key, -math.inf), float(row["power_kw"]))
    peaks = {(r["area_id"], r["day"]): float(r["p_peak_kw"]) for r in _rows(out_dir / "area_peak.csv")}
    if set(peaks) != set(profile_max):
        failures.append("area_peak.csv and area_profile.csv cover different area-days")
    for key, peak in peaks.items():
        if key in profile_max and peak != profile_max[key]:
            failures.append(f"{key}: area_peak {peak!r} != profile max {profile_max[key]!r}")

    area_peak: dict[str, float] = {}
    for (area_id, _day), peak in peaks.items():
        area_peak[area_id] = max(area_peak.get(area_id, 0.0), peak)
    features = json.loads((out_dir / "metrics.geojson").read_text(encoding="utf-8"))["features"]
    for feat in features:
        p = feat["properties"]
        area_id = p["area_id"]
        if area_id in coverage and not _close(p["e_ev_kwh_mean_daily"],
                                              float(coverage[area_id]["e_ev_kwh"])):
            failures.append(
                f"{area_id}: metrics.geojson e_ev_kwh_mean_daily {p['e_ev_kwh_mean_daily']!r} "
                f"!= coverage.csv {coverage[area_id]['e_ev_kwh']}")
        peak = area_peak.get(area_id, 0.0)
        if p["p_peak_kw_max"] != peak:
            failures.append(f"{area_id}: metrics.geojson p_peak_kw_max != area_peak.csv max")
        if not _close(p["p_density_w_m2"], peak * 1000.0 / p["area_m2"]):
            failures.append(f"{area_id}: metrics.geojson p_density_w_m2 inconsistent")
        ratio = coverage.get(area_id, {}).get("ratio", "")
        if ratio and not _close(p.get("coverage_ratio", math.nan), float(ratio)):
            failures.append(f"{area_id}: metrics.geojson coverage_ratio != coverage.csv")

    if dumps:
        with open(out_dir / "events.csv", encoding="utf-8") as fh:
            n_events = sum(1 for _ in fh) - 1
        if n_events != counts["events"]:
            failures.append(f"events.csv has {n_events} rows, manifest {counts['events']}")
        stays = _rows(out_dir / "stays.csv")
        n_users = len({r["user_id"] for r in stays})
        if n_users != counts["users_retained"]:
            failures.append(
                f"stays.csv has {n_users} users, manifest retained {counts['users_retained']}")
        if len(stays) > counts["stays"]:
            failures.append(f"stays.csv has {len(stays)} rows, manifest extracted {counts['stays']}")
        if retained_stays is not None and len(stays) != retained_stays:
            failures.append(f"stays.csv has {len(stays)} rows, traced run kept {retained_stays}")


def output_digests(out_dir: Path) -> dict:
    """The manifest's output digests (the reproducibility fingerprint)."""
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["outputs"]

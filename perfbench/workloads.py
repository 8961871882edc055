"""Benchmark workloads and their seeded input generator.

Each workload is a set of ``v2grid run`` flags plus a generator that writes
three input files (records CSV, planning-area GeoJSON, demand CSV) from a
seed, and a ``meta.json`` with what it planted: data rows, malformed rows and
distinct users. The program under test sees only those files.

Run as a script (with the package's ``src`` on ``PYTHONPATH``) to generate
one workload's inputs:

    python perfbench/workloads.py --workload dense_pings --seed 1 --out DIR

The table at the top imports nothing from ``v2grid``, so the benchmark driver
can read it without loading the package.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

DAY_S = 86400


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    flags: tuple[str, ...]

    @property
    def jobs(self) -> int:
        return int(self.flags[self.flags.index("--jobs") + 1])

    @property
    def dumps(self) -> bool:
        """Both optional dumps (events.csv, stays.csv) are written."""
        return {"--events-csv", "--stays-csv"} <= set(self.flags)


# Sizes are chosen so that one `v2grid run` takes a few seconds on a 2-core
# machine and a whole benchmark invocation stays well under a minute.
WORKLOADS = {
    w.name: w
    for w in (
        # synth's default shape: 15-min pings grouped by user, 12 rectangular
        # areas. The per-row records read and stay extraction dominate.
        Workload("dense_pings", 500, ("--jobs", "1")),
        # 90-min pings and ~6 away stays a day: few rows, many charge events,
        # a 5-min profile step and a 2-worker fan-out. Engine, aggregation and
        # the result shipping of the process pool dominate.
        Workload("many_trips", 1000, ("--jobs", "2", "--time-step", "5")),
        # The paper's funnel: 12% of users active all week, 88% transient and
        # dropped by the activity filter; rows in arrival (time) order with
        # malformed and offset-timestamp rows; 55 jittered polygons; dumps on.
        Workload("paper_funnel", 3000, ("--jobs", "1", "--events-csv", "--stays-csv")),
    )
}

RECORDS, AREAS, DEMAND, META = "records.csv", "areas.geojson", "demand.csv", "meta.json"
RECORDS_HEADER = "user_id,timestamp,lat,lon\n"


# ---------------------------------------------------------------------------
# Generator (imports v2grid lazily)
# ---------------------------------------------------------------------------

def _synth_grid():
    from v2grid.geo import GridSpec

    # the `v2grid synth` defaults
    return GridSpec(1.22, 103.60, 250.0, 120, 200)


def _synth_config(grid, seed: int, users: int, **overrides):
    from v2grid.synth import SynthConfig

    return SynthConfig.demo(grid, rng_seed=seed, n_users=users, n_days=7, **overrides)


def _synth_records(cfg, grid, path: Path) -> dict:
    """Records grouped by user in index order: `v2grid synth` output."""
    from v2grid.ingest import write_records_csv
    from v2grid.synth import generate

    users: dict[str, int] = {}

    def counted():
        for r in generate(cfg, grid):
            users[r.user_id] = users.get(r.user_id, 0) + 1
            yield r

    write_records_csv(counted(), path)
    return {"rows": sum(users.values()), "skipped": 0, "users": len(users)}


def _rect_areas(grid, seed: int, path: Path) -> None:
    from v2grid.geo import write_planning_areas_geojson
    from v2grid.synth import synthetic_planning_areas

    write_planning_areas_geojson(synthetic_planning_areas(grid, rng_seed=seed), path)


def gen_dense_pings(out: Path, seed: int, users: int) -> dict:
    grid = _synth_grid()
    meta = _synth_records(_synth_config(grid, seed, users), grid, out / RECORDS)
    _rect_areas(grid, seed, out / AREAS)
    return meta


def gen_many_trips(out: Path, seed: int, users: int) -> dict:
    grid = _synth_grid()
    cfg = _synth_config(
        grid, seed, users,
        ping_interval_minutes=90.0,
        mean_stays_per_day=6.0,
        stay_duration_mean_h=1.6,
        travel_gap_minutes=15.0,
    )
    meta = _synth_records(cfg, grid, out / RECORDS)
    _rect_areas(grid, seed, out / AREAS)
    return meta


# paper_funnel shape
ACTIVE_SHARE = 0.12  # 72 k of 600 k users in the paper pass the filter
TRANSIENT_DAYS = 3
COHORTS = 5  # transient start days 0..4, so every cohort ends by day 6
MALFORMED_SHARE = 0.001
OFFSET_SHARE = 0.02  # valid rows written with +08:00 instead of Z
AREA_BLOCKS = (5, 11)  # 55 planning areas
EDGE_SEGMENTS = 50  # per shared boundary, so ~200 vertices per polygon
EDGE_JITTER = 0.08  # boundary wiggle amplitude as a share of the block size


def _jittered_edge(rng, p0, p1, amplitude: float, straight: bool):
    """Points from p0 to p1 (exclusive of p1), displaced perpendicular to the
    edge by a seeded wiggle that vanishes at both corners."""
    import numpy as np

    t = np.arange(EDGE_SEGMENTS) / EDGE_SEGMENTS
    x = p0[0] + (p1[0] - p0[0]) * t
    y = p0[1] + (p1[1] - p0[1]) * t
    if not straight:
        phases = rng.uniform(0, 2 * math.pi, 3)
        wiggle = sum(np.sin((k + 1) * math.pi * t + phases[k]) / (k + 1) for k in range(3))
        wiggle = wiggle + rng.uniform(-0.3, 0.3, EDGE_SEGMENTS)
        off = amplitude * np.sin(math.pi * t) * wiggle / 2.0
        length = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
        nx, ny = -(p1[1] - p0[1]) / length, (p1[0] - p0[0]) / length
        x, y = x + off * nx, y + off * ny
    return np.column_stack([x, y])


def _jittered_areas(grid, seed: int, path: Path) -> None:
    """A 5 x 11 tiling of the grid whose inner boundaries are shared seeded
    wiggly polylines, so neighbouring polygons meet without gaps."""
    import numpy as np
    from v2grid.geo import PlanningArea, write_planning_areas_geojson

    rng = np.random.default_rng([seed, 0xA2EA])
    n_i, n_j = AREA_BLOCKS
    width_m, height_m = grid.bounds_projected()
    xs = [width_m * j / n_j for j in range(n_j + 1)]
    ys = [height_m * i / n_i for i in range(n_i + 1)]
    amp = EDGE_JITTER * min(width_m / n_j, height_m / n_i)
    # each lattice edge is drawn once, from its lower-left corner
    h_edges = {
        (i, j): _jittered_edge(rng, (xs[j], ys[i]), (xs[j + 1], ys[i]), amp, i in (0, n_i))
        for i in range(n_i + 1) for j in range(n_j)
    }
    v_edges = {
        (i, j): _jittered_edge(rng, (xs[j], ys[i]), (xs[j], ys[i + 1]), amp, j in (0, n_j))
        for i in range(n_i) for j in range(n_j + 1)
    }

    def reverse(edge, end):
        return np.vstack([[end], edge[:0:-1]])

    cos0 = math.cos(math.radians(grid.origin_lat))
    areas = []
    for i in range(n_i):
        for j in range(n_j):
            ring_xy = np.vstack([
                h_edges[(i, j)],
                v_edges[(i, j + 1)],
                reverse(h_edges[(i + 1, j)], (xs[j + 1], ys[i + 1])),
                reverse(v_edges[(i, j)], (xs[j], ys[i + 1])),
                [[xs[j], ys[i]]],
            ])
            x, y = ring_xy[:, 0], ring_xy[:, 1]
            area_m2 = 0.5 * abs(float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1])))
            lat = grid.origin_lat + np.degrees(y / 6371008.8)
            lon = grid.origin_lon + np.degrees(x / (6371008.8 * cos0))
            areas.append(PlanningArea(
                area_id=f"P{i * n_j + j + 1:02d}",
                name=f"Planning area {i * n_j + j + 1}",
                polygon=((np.column_stack([lat, lon]),),),
                area_m2=area_m2,
                households=int(rng.integers(2_000, 60_000)),
                monthly_kwh_per_household=float(rng.uniform(250.0, 450.0)),
            ))
    write_planning_areas_geojson(areas, path)


def _malformed(uid: str, stamp: str, pos: str, kind: int) -> str:
    lat, lon = pos.split(",")
    return (
        f"{uid},{stamp},{lat}\n",  # missing field
        f"{uid},2020-13-45T99:00:00Z,{pos}\n",  # impossible timestamp
        f"{uid},{stamp},north,{lon}\n",  # non-numeric latitude
        f"{uid},{stamp},91.500000,{lon}\n",  # latitude out of range
    )[kind % 4]


def gen_paper_funnel(out: Path, seed: int, users: int) -> dict:
    import dataclasses
    from datetime import timedelta

    import numpy as np
    from v2grid.ingest import format_timestamp
    from v2grid.synth import generate

    grid = _synth_grid()
    n_active = int(round(users * ACTIVE_SHARE))
    active = _synth_config(grid, seed, n_active, ping_interval_minutes=60.0)
    transient = dataclasses.replace(
        active, rng_seed=seed + 1_000_003, n_users=users - n_active,
        n_days=TRANSIENT_DAYS, ping_interval_minutes=180.0,
    )
    rng = np.random.default_rng([seed, 0xF0])
    ids = [f"u{k:06d}" for k in rng.permutation(users)]
    rows = []
    for r in generate(active, grid):
        # synth ids are "u" + the zero-padded user index
        rows.append((r.timestamp, ids[int(r.user_id[1:])], f"{r.lat:.6f},{r.lon:.6f}"))
    for r in generate(transient, grid):
        u = int(r.user_id[1:])
        rows.append((r.timestamp + timedelta(days=u % COHORTS), ids[n_active + u],
                     f"{r.lat:.6f},{r.lon:.6f}"))
    # a live feed arrives in time order; ties broken by user id
    rows.sort(key=lambda r: (r[0], r[1]))
    to_local = timedelta(seconds=active.utc_offset_s)
    offset = rng.random(len(rows)) < OFFSET_SHARE
    n_bad = int(round(len(rows) * MALFORMED_SHARE))
    bad_after = np.sort(rng.choice(len(rows), size=n_bad, replace=False))
    lines = []
    k = 0
    for n, (ts, uid, pos) in enumerate(rows):
        stamp = format_timestamp(ts)
        if offset[n]:
            lines.append(f"{uid},{(ts + to_local).strftime('%Y-%m-%dT%H:%M:%S')}+08:00,{pos}\n")
        else:
            lines.append(f"{uid},{stamp},{pos}\n")
        while k < n_bad and bad_after[k] == n:
            lines.append(_malformed(uid, stamp, pos, k))
            k += 1
    with open(out / RECORDS, "w", encoding="utf-8", newline="") as fh:
        fh.write(RECORDS_HEADER)
        fh.writelines(lines)
    _jittered_areas(grid, seed, out / AREAS)
    return {"rows": len(rows) + n_bad, "skipped": n_bad, "users": len({r[1] for r in rows})}


GENERATORS = {
    "dense_pings": gen_dense_pings,
    "many_trips": gen_many_trips,
    "paper_funnel": gen_paper_funnel,
}


def generate(name: str, seed: int, out: Path, users: int) -> dict:
    """Write one workload's inputs and meta.json into `out`; return the meta."""
    from v2grid.synth import write_demand_curve_csv

    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    meta = GENERATORS[name](out, seed, users)
    write_demand_curve_csv(out / DEMAND)
    meta.update(workload=name, seed=seed, users_planted=users,
                generate_s=time.perf_counter() - started)
    (out / META).write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, WORKLOADS[args.workload].users)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points.

``v2grid synth`` writes a reproducible synthetic location-records CSV (plus,
optionally, matching planning areas and a demand curve). ``v2grid run``
executes the full pipeline: ingest records, simulate every user-day in
(user, day) order, ``_CHUNK_USER_DAYS`` at a time, into charge-event columns
(``engine.simulate_user_days``), sum them per planning area, and compare
against the household baseline.

Exit codes: 0 success, 2 usage or config error, 3 internal invariant
violation. ``cmd_run`` writes only after every other stage has succeeded,
into a temporary directory: a new output directory is that directory moved
into place, and in an existing one each file replaces its namesake, the
manifest last (README, exit codes).
Two runs with identical inputs and flags produce byte-identical output files
(``--jobs`` is accepted but has no effect yet); the manifest records sha256
digests of every input and output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import stat
import sys
import tempfile
import threading
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .aggregate import (
    UNASSIGNED,
    AggregateBuilder,
    ScalingConfig,
    attach_sizing,
    write_area_energy_csv,
    write_area_peak_csv,
    write_area_profile_csv,
    write_metrics_geojson,
)
from .baseline import (
    check_days_in_month,
    coverage_and_stats,
    household_baselines,
    night_fraction,
    read_demand_csv,
    write_coverage_csv,
    write_coverage_hist_csv,
    write_regression_txt,
)
from .engine import (
    _CHUNK_USER_DAYS,
    EventColumns,
    PvWindow,
    VehicleParams,
    day_range_of,
    simulate_user_days,
    write_events_csv,
)
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    InvariantViolationError,
    V2GridError,
)
from .geo import (
    GridSpec,
    build_area_index,
    load_planning_areas,
    write_planning_areas_geojson,
)
from .ingest import (
    IngestConfig,
    ingest_trajectories,
    read_records_csv,
    write_records_csv,
    write_stays_csv,
)

_DIGEST_BLOCK = 1 << 16  # bytes read and hashed at a time
# 4096 x 4096 cells: build_area_index takes about 0.5 s and 470 MB there (2-vCPU VM)
_MAX_GRID_CELLS = 1 << 24


def _hash_file(path, digest, buffer: bytearray) -> None:
    """Update `digest` with the bytes of the file at `path`, read unbuffered
    into `buffer`."""
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(view):
            digest.update(view[:n])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    _hash_file(path, digest, bytearray(_DIGEST_BLOCK))
    return digest.hexdigest()


class _Digest(threading.Thread):
    """The sha256 of one file, computed in a thread beside the run: ``hashlib``
    releases the GIL while it hashes a block.

    The thread calls `_hash_file`, never `_sha256`, so that a wrapper put
    around the module's `_sha256` need not be thread-safe."""

    def __init__(self, path):
        super().__init__(name="v2grid-digest")
        self._path = path
        self._digest = hashlib.sha256()
        self._buffer = bytearray(_DIGEST_BLOCK)
        self._error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            _hash_file(self._path, self._digest, self._buffer)
        except BaseException as exc:  # raised again by result(), in the caller's thread
            self._error = exc

    def result(self) -> str:
        self.join()
        if self._error is not None:
            raise self._error
        return self._digest.hexdigest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2grid",
        description="Vehicle-to-grid supply and demand estimation from mobility traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic records CSV")
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--users", type=int, default=100)
    p_synth.add_argument("--days", type=int, default=7)
    p_synth.add_argument("--start-date", type=date.fromisoformat, default=date(2020, 9, 1))
    p_synth.add_argument("--origin-lat", type=float, default=1.22)
    p_synth.add_argument("--origin-lon", type=float, default=103.60)
    p_synth.add_argument("--rows", type=int, default=120)
    p_synth.add_argument("--cols", type=int, default=200)
    p_synth.add_argument("--cell-size", type=float, default=250.0, help="meters")
    p_synth.add_argument("--ping-interval", type=float, default=15.0, help="minutes")
    p_synth.add_argument("--mean-stays", type=float, default=2.0,
                         help="mean away-from-home stays per day")
    p_synth.add_argument("--tz", type=float, default=8.0, help="UTC offset hours")
    p_synth.add_argument("--out", default="records.csv")
    p_synth.add_argument("--areas-out", default=None,
                         help="also write matching planning areas GeoJSON")
    p_synth.add_argument("--demand-out", default=None,
                         help="also write a demo demand-curve CSV")

    p_run = sub.add_parser("run", help="run the full pipeline")
    p_run.add_argument("records", help="location records CSV")
    p_run.add_argument("areas", help="planning areas GeoJSON")
    p_run.add_argument("demand", help="system demand curve CSV")
    p_run.add_argument("--delta", type=float, default=0.03, help="EV penetration rate")
    p_run.add_argument("--n-pop", type=float, default=5.5e6, help="city population")
    p_run.add_argument("--c-max", type=float, default=25.0, help="battery capacity kWh")
    p_run.add_argument("--l-max", type=float, default=135.0, help="vehicle range km")
    p_run.add_argument("--p-charge", type=float, default=6.6, help="charge power kW")
    p_run.add_argument("--p-discharge", type=float, default=6.6, help="discharge power kW")
    p_run.add_argument("--c-thr", type=float, default=0.5, help="SOC threshold")
    p_run.add_argument("--c-init", type=float, default=0.5, help="SOC at each midnight")
    p_run.add_argument("--pv-start", default="09:00", help="solar window start HH:MM")
    p_run.add_argument("--pv-end", default="17:00", help="solar window end HH:MM")
    p_run.add_argument("--pv-charge-target", type=float, default=1.0)
    p_run.add_argument("--tau", type=float, default=1.0, help="minimum stay time, hours")
    p_run.add_argument("--min-days", type=int, default=5,
                       help="required consecutive active days")
    p_run.add_argument("--cell-size", type=float, default=250.0, help="meters")
    p_run.add_argument("--time-step", type=float, default=15.0,
                       help="demand profile step, minutes")
    p_run.add_argument("--tz", type=float, default=8.0, help="UTC offset hours")
    p_run.add_argument("--days-in-month", type=int, default=30,
                       help="divisor for monthly household consumption")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="must be >= 1; no effect until the records read is parallel")
    p_run.add_argument("--events-csv", action="store_true",
                       help="also dump every charge event")
    p_run.add_argument("--stays-csv", action="store_true",
                       help="also dump the extracted stays of retained users")
    p_run.add_argument("--out-dir", default="out")
    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import (  # imported here: a run never loads synth
        SynthConfig,
        generate,
        synthetic_planning_areas,
        write_demand_curve_csv,
    )

    grid = GridSpec(args.origin_lat, args.origin_lon, args.cell_size, args.rows, args.cols)
    cfg = SynthConfig.demo(
        grid,
        rng_seed=args.seed,
        n_users=args.users,
        n_days=args.days,
        start_date=args.start_date,
        utc_offset_hours=args.tz,
        ping_interval_minutes=args.ping_interval,
        mean_stays_per_day=args.mean_stays,
    )
    write_records_csv(generate(cfg, grid), args.out)
    if args.areas_out:
        write_planning_areas_geojson(
            synthetic_planning_areas(grid, rng_seed=args.seed), args.areas_out
        )
    if args.demand_out:
        write_demand_curve_csv(args.demand_out)
    return 0


def _grid_from_areas(areas, cell_size_m: float) -> GridSpec:
    """Smallest grid whose bounding box covers every area polygon."""
    rings = [ring for area in areas for part in area.polygon for ring in part]
    if not rings:
        raise V2GridError("no polygon vertices found in planning areas")
    vertices = np.concatenate(rings)
    lat_min, lon_min = map(float, vertices.min(axis=0))
    lat_max, lon_max = map(float, vertices.max(axis=0))
    probe = GridSpec(lat_min, lon_min, cell_size_m, 1, 1)
    x_max, y_max = probe.project(lat_max, lon_max)
    # float counts: a tiny cell size makes them infinite, which int() rejects
    n_cols = max(1.0, float(np.ceil(x_max / cell_size_m - 1e-9)))
    n_rows = max(1.0, float(np.ceil(y_max / cell_size_m - 1e-9)))
    if n_rows * n_cols > _MAX_GRID_CELLS:
        raise InvalidInputError(
            f"planning areas span a {n_rows:.0f} x {n_cols:.0f} grid of {cell_size_m:g} m "
            f"cells, more than {_MAX_GRID_CELLS} cells: look for stray vertices or raise "
            "--cell-size"
        )
    return GridSpec(lat_min, lon_min, cell_size_m, int(n_rows), int(n_cols))


def _simulate_chunk(job: tuple) -> tuple[EventColumns, int, int]:
    """Simulate the user-days ``lo`` to ``hi - 1`` of the `simulate_user_days`
    arguments ``job = (stays, days, lo, hi, params, window, grid,
    utc_offset_s)``; returns (events, range_exceeded, n_traces), events in
    (user, day) order."""
    events, range_exceeded = simulate_user_days(*job)
    _stays, _days, lo, hi, *_setup = job
    return events, range_exceeded, hi - lo


def _checked_flags(args: argparse.Namespace) -> tuple[VehicleParams, PvWindow, IngestConfig]:
    """Every check that reads no input: a bad flag, a blocked ``--out-dir``
    or a missing input file stops the run before any work."""
    if args.jobs < 1:
        raise InvalidConfigError("--jobs must be >= 1")
    params = VehicleParams(
        capacity_kwh=args.c_max,
        range_km=args.l_max,
        charge_power_kw=args.p_charge,
        discharge_power_kw=args.p_discharge,
        soc_threshold=args.c_thr,
        soc_initial=args.c_init,
        pv_charge_target=args.pv_charge_target,
    )
    window = PvWindow.from_times(args.pv_start, args.pv_end)
    try:
        # timedelta rounds to whole microseconds: --tau 1.1 is 3960.0 s, not
        # the 3960.0000000000005 of 1.1 * 3600
        tau_s = timedelta(hours=args.tau).total_seconds()
    except (ValueError, OverflowError) as exc:
        raise InvalidConfigError(f"--tau {args.tau} is not a duration") from exc
    ingest_cfg = IngestConfig(
        tau_s=tau_s, min_consecutive_days=args.min_days, utc_offset_hours=args.tz
    )
    if not math.isfinite(args.n_pop):
        raise InvalidConfigError("--n-pop must be finite")
    # the observed-user count is known only after ingest and the grid extent
    # only after the areas are read; everything else ScalingConfig and
    # GridSpec check is checked here
    ScalingConfig(args.delta, 1, int(args.n_pop), args.time_step)
    GridSpec(0.0, 0.0, args.cell_size)
    check_days_in_month(args.days_in_month)
    out_dir = Path(args.out_dir)
    for path in (out_dir, *out_dir.parents):  # the first that exists must be a directory
        if path.exists():
            if not path.is_dir():
                raise InvalidConfigError(f"--out-dir {out_dir}: {path} is not a directory")
            break
    for path in (out_dir / name for name in (*_out_names(args), "manifest.json")):
        if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
            raise InvalidConfigError(f"--out-dir {out_dir}: {path} is not a regular file")
    for path in (args.records, args.areas, args.demand):
        if not Path(path).is_file():
            raise InvalidInputError(f"input file not found: {path}")
    return params, window, ingest_cfg


def _read_inputs(args: argparse.Namespace, window: PvWindow, ingest_cfg: IngestConfig):
    """Planning areas, the demand curve's night fraction, the area index and
    the retained users' stay columns, plus the manifest counts and warnings
    of the read. The records columns are freed when this returns."""
    areas = load_planning_areas(args.areas)
    if not areas:
        raise InvalidInputError("planning areas file contains no features")
    night_frac = night_fraction(read_demand_csv(args.demand), window)
    grid = _grid_from_areas(areas, args.cell_size)
    index = build_area_index(grid, areas)
    records, rows_skipped = read_records_csv(args.records, grid=grid)
    stays, stats = ingest_trajectories(records, ingest_cfg)
    counts = {
        "rows_read": len(records) + rows_skipped,
        "rows_skipped": rows_skipped,
        "users_total": stats.users_total,
        "users_retained": stats.users_retained,
        "stays": stats.stays_emitted,
    }
    warnings = {
        "rows_skipped": rows_skipped,
        "records_out_of_grid": stats.records_out_of_grid,
        "grid_cells_unassigned": index.n_unassigned,
        "empty_records_input": len(records) == 0,
    }
    return areas, night_frac, index, stays, counts, warnings


def simulate(params, window, areas, index, stays, scaling, utc_offset_s, keep_events=False):
    """Simulate every user-day of the `StayColumns` `stays` and sum its charge
    events per area and day; returns (days, aggregates, events, counts,
    warnings), with the events kept only when `keep_events` is set."""
    days = day_range_of(stays, utc_offset_s)
    builder = AggregateBuilder(index, scaling)
    n_user_days = len(stays.user_ids) * len(days)
    kept: list[EventColumns] = []
    range_exceeded = n_traces = n_events = 0
    for lo in range(0, n_user_days, _CHUNK_USER_DAYS):
        hi = min(lo + _CHUNK_USER_DAYS, n_user_days)
        events, rexc, n = _simulate_chunk(
            (stays, days, lo, hi, params, window, index.grid, utc_offset_s)
        )
        builder.add_events(events)
        n_events += len(events)
        if keep_events:
            kept.append(events)
        range_exceeded += rexc
        n_traces += n
    aggregates = builder.aggregates()
    attach_sizing(aggregates, {a.area_id: a for a in areas}, params.charge_power_kw)
    counts = {"simulated_days": len(days), "traces": n_traces, "events": n_events}
    warnings = {
        "events_in_unassigned_cells": builder.events_unassigned,
        "range_exceeded_trips": range_exceeded,
    }
    return days, aggregates, EventColumns.concat(kept), counts, warnings


def compare(areas, aggregates, n_days: int, night_frac: float, days_in_month: int):
    """Per area, the mean daily V2G supply and the maximum daily peak, and the
    supply against the household night baseline; returns (e_ev_mean, p_peak_max,
    e_hh, coverage, areas without household data)."""
    e_hh, skipped_areas = household_baselines(areas, days_in_month, night_frac)
    e_ev_mean: dict[str, float] = {a.area_id: 0.0 for a in areas}
    p_peak_max = dict(e_ev_mean)
    for (area_id, _day), agg in aggregates.items():
        if area_id != UNASSIGNED:
            e_ev_mean[area_id] = e_ev_mean.get(area_id, 0.0) + agg.e_ev_kwh
            p_peak_max[area_id] = max(p_peak_max.get(area_id, 0.0), agg.p_ev_peak_kw)
    if n_days:
        e_ev_mean = {a: v / n_days for a, v in e_ev_mean.items()}
    return e_ev_mean, p_peak_max, e_hh, coverage_and_stats(e_ev_mean, e_hh), skipped_areas


def _manifest(args, params, scaling, grid, started, records_digest, outputs, counts,
              warnings) -> dict:
    """The run's ``manifest.json``: parameters, input and output digests,
    counts and warnings. `records_digest` is the records file's `_Digest`."""
    n_usr = counts["users_retained"]
    return {
        "tool": {"name": "v2grid", "version": __version__},
        "started_utc": started.isoformat(),
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "timezone": f"UTC{'+' if args.tz >= 0 else '-'}{abs(args.tz):05.2f}h",
        "parameters": {
            "delta": args.delta,
            "n_pop": int(args.n_pop),
            "n_usr": n_usr,
            "market_share": scaling.market_share if n_usr else None,
            "c_max_kwh": params.capacity_kwh,
            "l_max_km": params.range_km,
            "p_charge_kw": params.charge_power_kw,
            "p_discharge_kw": params.discharge_power_kw,
            "c_thr": params.soc_threshold,
            "c_init": params.soc_initial,
            "pv_charge_target": params.pv_charge_target,
            "pv_start": args.pv_start,
            "pv_end": args.pv_end,
            "tau_hours": args.tau,
            "min_consecutive_days": args.min_days,
            "cell_size_m": args.cell_size,
            "time_step_minutes": args.time_step,
            "tz_offset_hours": args.tz,
            "days_in_month": args.days_in_month,
            "jobs": args.jobs,
            "grid": {k: getattr(grid, k) for k in ("origin_lat", "origin_lon", "n_rows", "n_cols")},
        },
        "inputs": {
            "records": records_digest.result(),
            "areas": _sha256(Path(args.areas)),
            "demand": _sha256(Path(args.demand)),
        },
        "outputs": outputs,
        "counts": counts,
        "warnings": warnings,
    }


def _out_names(args: argparse.Namespace) -> list:
    """The files a run writes into ``--out-dir`` before its manifest, in order."""
    dumps = [("events.csv", args.events_csv), ("stays.csv", args.stays_csv)]
    return [
        "area_energy.csv", "area_peak.csv", "area_profile.csv", "coverage.csv",
        "coverage_hist.csv", "regression.txt", "metrics.geojson",
        *(name for name, on in dumps if on),
    ]


def _write_outputs(args, params, scaling, grid, started, records_digest, out_files, counts,
                   warnings) -> None:
    """Write each (name, writer) of `out_files` in order, then the manifest
    with the sha256 of each of those files, into a temporary directory. For a
    new ``--out-dir`` it is made beside it and renamed into place. An existing
    ``--out-dir`` holds it, so that each file moves within one directory: the
    old manifest is removed, then each file replaces its namesake, the new
    manifest last. An ``OSError`` exits 2 and leaves no temporary directory."""
    out_dir = Path(args.out_dir)
    existing = out_dir.exists()
    work = None
    try:
        home = out_dir if existing else out_dir.parent
        home.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=home))
        for name, write in out_files:
            write(work / name)
        outputs = {name: _sha256(work / name) for name, _ in out_files}
        manifest = _manifest(
            args, params, scaling, grid, started, records_digest, outputs, counts, warnings
        )
        with open(work / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if existing:
            (out_dir / "manifest.json").unlink(missing_ok=True)
            for name in [name for name, _ in out_files] + ["manifest.json"]:
                os.replace(work / name, out_dir / name)
        else:
            umask = os.umask(0o022)
            os.umask(umask)
            work.chmod(0o777 & ~umask)  # the mode mkdir would give, not mkdtemp's 0o700
            work.rename(out_dir)
    except OSError as exc:
        raise InvalidConfigError(f"cannot write --out-dir {out_dir}: {exc}") from exc
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)


def cmd_run(args: argparse.Namespace) -> int:
    """Check the flags, read, simulate, compare, then write: only the last
    stage makes ``--out-dir``. The records digest is computed in a thread
    beside the read and the simulation, and joined before this returns or
    raises."""
    params, window, ingest_cfg = _checked_flags(args)
    started = datetime.now(timezone.utc)
    records_digest = _Digest(args.records)
    records_digest.start()
    try:
        areas, night_frac, index, stays, counts, warnings = _read_inputs(args, window, ingest_cfg)
        scaling = ScalingConfig(args.delta, max(1, len(stays)), int(args.n_pop), args.time_step)
        days, aggregates, events, sim_counts, sim_warnings = simulate(
            params, window, areas, index, stays, scaling, ingest_cfg.utc_offset_s, args.events_csv,
        )
        e_ev_mean, p_peak_max, e_hh, coverage, skipped_areas = compare(
            areas, aggregates, len(days), night_frac, args.days_in_month
        )
        writers = {
            "area_energy.csv": lambda path: write_area_energy_csv(aggregates, path),
            "area_peak.csv": lambda path: write_area_peak_csv(aggregates, path),
            "area_profile.csv": lambda path: write_area_profile_csv(
                aggregates, args.time_step, path),
            "coverage.csv": lambda path: write_coverage_csv(
                e_ev_mean, e_hh, coverage.ratios, path),
            "coverage_hist.csv": lambda path: write_coverage_hist_csv(coverage.histogram, path),
            "regression.txt": lambda path: write_regression_txt(coverage, path),
            "metrics.geojson": lambda path: write_metrics_geojson(
                areas, e_ev_mean, p_peak_max, coverage.ratios, path),
            "events.csv": lambda path: write_events_csv(events, path),
            "stays.csv": lambda path: write_stays_csv(stays, path),
        }
        _write_outputs(
            args, params, scaling, index.grid, started, records_digest,
            [(name, writers[name]) for name in _out_names(args)],
            {**counts, **sim_counts},
            {**warnings, **sim_warnings, "areas_missing_household_data": skipped_areas,
             "regression_note": coverage.stats_note},
        )
        return 0
    finally:
        records_digest.join()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        return cmd_run(args)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (V2GridError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Run `main` as the ``v2grid`` command and exit with its code.

    A run's outputs are written and closed, and its digest thread joined,
    before `main` returns, so the process ends with ``os._exit`` once stdout
    and stderr are flushed: the interpreter's teardown (freeing every module
    and object, running ``atexit`` hooks) would cost about 27 ms and change
    nothing. Anything else that buffers output must be flushed here before
    the exit, as a ``logging`` handler would be. Tests and library callers
    call `main`, which returns."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entrypoint()

"""Independent reference implementations used to cross-check the fast paths.

The battery oracle integrates minute by minute, and the attendance oracle
scans boolean day masks directly; neither reuses engine logic beyond the
public parameter containers. The reference event engine is ``simulate_day``
as it was before its regime rule and distance source were simplified and
before it ran on the column engine: one stay and one window segment at a
time, from ``slice_trajectory_days``'s day-stays and ``window_segments``'
cuts; it shares only ``haversine_m``, and ``local_day_span`` for the day
split, with the package. The
per-user ingest is the path the package used
before its columnar one: it reads one ``LocationRecord`` per row, extracts
stays one user at a time, merges them per user with ``build_trajectory`` and
applies the activity filter with ``filter_active_users``, one stay and one
day at a time; it shares only ``locate_many`` and ``local_day_span`` with the
package. The per-event aggregation is the loop the package used before its
batch reduction: one event at a time, one profile step at a time. The
per-area index tests every cell centroid against every polygon edge, one
edge at a time, as the package did before its scanline index. The GeoJSON
writer builds the whole document as dicts and lists and encodes it with
``json.dumps``, as the package did before it formatted each distinct
coordinate once.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timedelta, timezone
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from v2grid import (
    UNASSIGNED,
    AreaAggregate,
    AreaIndex,
    CellId,
    ChargeEvent,
    DayStay,
    DepletionJump,
    GridSpec,
    IngestConfig,
    IngestStats,
    InvalidInputError,
    InvariantViolationError,
    LocationRecord,
    PlanningArea,
    PvWindow,
    Regime,
    ScalingConfig,
    SocTrace,
    Stay,
    Trajectory,
    VehicleParams,
    haversine_m,
    locate_many,
)
from v2grid.geo import EARTH_RADIUS_M, PolygonParts, Ring
from v2grid.ingest import (
    DAY_S, RECORDS_HEADER, _parse_timestamp, format_epoch, local_day_span,
)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def brute_force_day(
    stays: Sequence[DayStay],
    params: VehicleParams,
    window: PvWindow,
    grid: GridSpec,
    step_minutes: float = 1.0,
):
    """Fixed-step SOC integrator for one day.

    Energy within a step is capped by the remaining headroom to the active
    target, so the stepper is exact whenever stay and window boundaries are
    aligned to whole steps. Returns (energy by (stay_idx, regime), final soc,
    applied jumps).
    """
    n_steps = int(round(24 * 60 / step_minutes))
    dt_h = 24.0 / n_steps
    soc = params.soc_initial
    cap = params.capacity_kwh
    energy: dict[tuple[int, str], float] = {}
    jumps: list[float] = []

    # integer sub-minute bounds keep step membership exact for aligned input
    bounds = [
        (int(round(st.start_hour * 60 / step_minutes)),
         int(round(st.end_hour * 60 / step_minutes)))
        for st in stays
    ]
    win_lo = window.start_hour * 60 / step_minutes
    win_hi = window.end_hour * 60 / step_minutes

    def stay_at(k: int):
        for idx, (s, e) in enumerate(bounds):
            if s <= k < e:
                return idx, stays[idx]
        return None, None

    prev_cell = None
    entered: set[int] = set()
    for k in range(n_steps):
        idx, st = stay_at(k)
        if st is None:
            continue
        if idx not in entered:
            entered.add(idx)
            if prev_cell is not None and st.cell != prev_cell:
                lat1, lon1 = grid.cell_centroid(prev_cell)
                lat2, lon2 = grid.cell_centroid(st.cell)
                dist_km = haversine_m(lat1, lon1, lat2, lon2) / 1000.0
                drop = dist_km / params.range_km
                applied = min(drop, soc)
                soc -= applied
                jumps.append(applied)
            prev_cell = st.cell
        if win_lo <= k < win_hi:
            if soc < params.pv_charge_target:
                e = min(
                    params.charge_power_kw * dt_h,
                    (params.pv_charge_target - soc) * cap,
                )
                soc += e / cap
                key = (idx, "PV_CHARGE")
                energy[key] = energy.get(key, 0.0) + e
        elif soc > params.soc_threshold:
            e = min(params.discharge_power_kw * dt_h, (soc - params.soc_threshold) * cap)
            soc -= e / cap
            key = (idx, "DISCHARGE")
            energy[key] = energy.get(key, 0.0) + e
        elif soc < params.soc_threshold:
            e = min(params.charge_power_kw * dt_h, (params.soc_threshold - soc) * cap)
            soc += e / cap
            key = (idx, "NONPV_CHARGE")
            energy[key] = energy.get(key, 0.0) + e
    return energy, soc, jumps


def longest_true_run(present: Sequence[bool]) -> int:
    """Length of the longest run of consecutive True entries."""
    best = run = 0
    for flag in present:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best


def group_events(events, stays: Sequence[DayStay]):
    """Engine events regrouped to the oracle's (stay index, regime) keys.

    Returns (energy sums, event counts) per group; stay indices are recovered
    by interval containment.
    """
    grouped: dict[tuple[int, str], float] = {}
    counts: dict[tuple[int, str], int] = {}
    for ev in events:
        idx = next(
            i
            for i, st in enumerate(stays)
            if st.start_hour - 1e-9 <= ev.start_hour and ev.end_hour <= st.end_hour + 1e-9
        )
        key = (idx, ev.regime.value)
        grouped[key] = grouped.get(key, 0.0) + ev.energy_kwh
        counts[key] = counts.get(key, 0) + 1
    return grouped, counts


# ---------------------------------------------------------------------------
# Event engine before its simplification
# ---------------------------------------------------------------------------


def window_segments(
    start: float, end: float, window: PvWindow
) -> list[tuple[float, float, bool]]:
    """(start, end, inside the window) of the parts of [start, end] that the
    window bounds inside it cut."""
    cuts = [start]
    for b in (window.start_hour, window.end_hour):
        if start < b < end:
            cuts.append(b)
    cuts.append(end)
    return [(a, b, window.contains(a)) for a, b in zip(cuts, cuts[1:]) if b > a]


def slice_trajectory_days(
    trajectory: Trajectory, utc_offset_s: int
) -> dict[int, list[DayStay]]:
    """Clip a trajectory's stays to local epoch-days. Stays spanning midnight
    are split at the boundary; each part lands in its own day."""
    by_day: dict[int, list[DayStay]] = {}
    for stay in trajectory.stays:
        d0, d1 = local_day_span(stay.arrival, stay.departure, utc_offset_s)
        for k in range(d0, d1 + 1):
            midnight = k * DAY_S - utc_offset_s
            s = max(stay.arrival - midnight, 0)
            e = min(stay.departure - midnight, DAY_S)
            if e > s:
                by_day.setdefault(k, []).append(
                    DayStay(stay.cell, s / 3600.0, e / 3600.0)
                )
    return by_day


def simulate_day_reference(
    user_id: str,
    day: int,
    stays: Sequence[DayStay],
    params: VehicleParams,
    window: PvWindow,
    grid: GridSpec,
) -> SocTrace:
    """The event engine as it was before its regime rule and its distance
    source were simplified: four regime cases and an ``active`` flag, and
    each trip's distance from two ``GridSpec.cell_centroid`` unprojections."""
    prev_end = 0.0
    for st in stays:
        if not (0.0 <= st.start_hour < st.end_hour <= 24.0):
            raise InvalidInputError(f"stay {st} outside the day bounds")
        if st.start_hour < prev_end:
            raise InvalidInputError("stays must be ordered and non-overlapping")
        prev_end = st.end_hour

    soc = params.soc_initial
    breakpoints: list[tuple[float, float]] = [(0.0, soc)]
    events: list[ChargeEvent] = []
    jumps: list[DepletionJump] = []
    range_exceeded = 0
    cap = params.capacity_kwh

    def mark(t: float, s: float) -> None:
        if breakpoints[-1] != (t, s):
            breakpoints.append((t, s))

    prev_cell: Optional[CellId] = None
    for st in stays:
        if prev_cell is not None and st.cell != prev_cell:
            dist_km = haversine_m(
                *grid.cell_centroid(prev_cell), *grid.cell_centroid(st.cell)
            ) / 1000.0
            drop = dist_km / params.range_km
            if drop > 0.0:
                mark(st.start_hour, soc)
                clamped = drop > soc
                applied = soc if clamped else drop
                if clamped:
                    range_exceeded += 1
                soc = 0.0 if clamped else soc - applied
                jumps.append(DepletionJump(st.start_hour, applied, prev_cell, st.cell, clamped))
                mark(st.start_hour, soc)

        for seg_s, seg_e, inside in window_segments(st.start_hour, st.end_hour, window):
            if inside:
                target, rate, regime, up = (
                    params.pv_charge_target, params.charge_power_kw, Regime.PV_CHARGE, True,
                )
                active = soc < target
            elif soc > params.soc_threshold:
                target, rate, regime, up = (
                    params.soc_threshold, params.discharge_power_kw, Regime.DISCHARGE, False,
                )
                active = True
            elif soc < params.soc_threshold:
                target, rate, regime, up = (
                    params.soc_threshold, params.charge_power_kw, Regime.NONPV_CHARGE, True,
                )
                active = True
            else:
                active = False
            if not active:
                continue
            gap = (target - soc) if up else (soc - target)
            if gap * cap < 1e-12:  # rounding dust, not a real transfer
                continue
            need_h = gap * cap / rate
            if need_h <= seg_e - seg_s:
                energy = gap * cap
                t1 = seg_s + need_h
                new_soc = target
            else:
                energy = rate * (seg_e - seg_s)
                t1 = seg_e
                delta = energy / cap
                new_soc = min(soc + delta, target) if up else max(soc - delta, target)
            if t1 > seg_s and energy > 0.0:
                mark(seg_s, soc)
                events.append(
                    ChargeEvent(user_id, day, st.cell, regime, seg_s, t1, rate, energy)
                )
                soc = new_soc
                mark(t1, soc)
        prev_cell = st.cell

    mark(24.0, soc)
    if not -1e-12 <= soc <= 1.0 + 1e-12:
        raise InvariantViolationError(
            f"SOC {soc} escaped [0, 1] for user {user_id} on {format_epoch(day)}"
        )
    return SocTrace(
        user_id=user_id,
        day=day,
        breakpoints=breakpoints,
        events=events,
        depletion_jumps=jumps,
        soc_initial=params.soc_initial,
        soc_final=soc,
        range_exceeded=range_exceeded,
    )


# ---------------------------------------------------------------------------
# Per-user ingest: one LocationRecord per row, stays user by user
# ---------------------------------------------------------------------------


def read_records_per_row(path) -> tuple[dict[str, list[LocationRecord]], int]:
    """Read the ingest CSV row by row into LocationRecords grouped by user;
    malformed rows are skipped and counted. Returns (records by user,
    skipped-row count)."""
    by_user: dict[str, list[LocationRecord]] = {}
    skipped = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return {}, 0
        if [h.strip() for h in header] != RECORDS_HEADER:
            raise InvalidInputError(
                f"records CSV must have header {','.join(RECORDS_HEADER)}"
            )
        for row in reader:
            if len(row) != 4:
                skipped += 1
                continue
            try:
                rec = LocationRecord(
                    user_id=row[0],
                    timestamp=_parse_timestamp(row[1]),
                    lat=float(row[2]),
                    lon=float(row[3]),
                )
            except (ValueError, OverflowError):
                skipped += 1
                continue
            if not (-90.0 <= rec.lat <= 90.0 and -180.0 <= rec.lon <= 180.0):
                skipped += 1
                continue
            by_user.setdefault(rec.user_id, []).append(rec)
    return by_user, skipped


def extract_stays_one_user(
    records: Sequence[LocationRecord],
    grid: GridSpec,
    cfg: IngestConfig,
    stats: Optional[IngestStats] = None,
) -> list[Stay]:
    """Turn one user's time-sorted pings into stays of duration >= tau.

    Maximal runs of consecutive pings in the same cell become candidate
    intervals [first ping, last ping]; runs shorter than tau are dropped.
    Pings outside the grid are dropped (counted in stats). Emitted stays that
    end up exactly adjacent in time in the same cell are merged. Timestamps
    are floored to whole seconds.
    """
    if not records:
        return []
    uid = records[0].user_id
    epochs = np.empty(len(records), dtype=np.int64)
    lats = np.empty(len(records), dtype=np.float64)
    lons = np.empty(len(records), dtype=np.float64)
    for i, r in enumerate(records):
        if r.user_id != uid:
            raise InvalidInputError("extract_stays expects records of a single user")
        epochs[i] = (r.timestamp - _EPOCH) // timedelta(seconds=1)
        lats[i] = r.lat
        lons[i] = r.lon
    if np.any(np.diff(epochs) < 0):
        raise InvalidInputError("records must be sorted by timestamp")

    rows, cols = locate_many(lats, lons, grid)
    keep = rows >= 0
    dropped = int(np.count_nonzero(~keep))
    if stats is not None:
        stats.records_out_of_grid += dropped
    if dropped:
        epochs, rows, cols = epochs[keep], rows[keep], cols[keep]
    if len(epochs) == 0:
        return []

    change = np.flatnonzero((rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]))
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [len(epochs) - 1]))

    stays: list[Stay] = []
    for s, e in zip(starts, ends):
        if epochs[e] - epochs[s] < cfg.tau_s:
            continue
        cell = CellId(int(rows[s]), int(cols[s]))
        arrival, departure = int(epochs[s]), int(epochs[e])
        if stays and stays[-1].cell == cell and stays[-1].departure == arrival:
            stays[-1] = Stay(uid, cell, stays[-1].arrival, departure)
        else:
            stays.append(Stay(uid, cell, arrival, departure))
    if stats is not None:
        stats.stays_emitted += len(stays)
    return stays


def build_trajectory(stays: Sequence[Stay], tau_s: float = 3600.0) -> Trajectory:
    """Sort one user's stays and merge same-cell stays separated by < tau."""
    if not stays:
        return Trajectory(user_id="", stays=())
    uid = stays[0].user_id
    if any(s.user_id != uid for s in stays):
        raise InvalidInputError("build_trajectory expects stays of a single user")
    ordered = sorted(stays, key=lambda s: (s.arrival, s.departure))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.arrival < prev.departure:
            raise InvalidInputError(
                f"overlapping stays for user {uid}: "
                f"{format_epoch(0, prev.departure)}Z > {format_epoch(0, cur.arrival)}Z"
            )
    merged: list[Stay] = []
    for stay in ordered:
        if (
            merged
            and stay.cell == merged[-1].cell
            and stay.arrival - merged[-1].departure < tau_s
        ):
            merged[-1] = Stay(uid, stay.cell, merged[-1].arrival, stay.departure)
        else:
            merged.append(stay)
    return Trajectory(user_id=uid, stays=tuple(merged))


def _longest_consecutive_run(days: Iterable[int]) -> int:
    best = run = 0
    prev = None
    for d in sorted(set(days)):
        run = run + 1 if prev is not None and d == prev + 1 else 1
        best = max(best, run)
        prev = d
    return best


def filter_active_users(
    trajectories: Mapping[str, Trajectory], cfg: IngestConfig
) -> set[str]:
    """Users with stays on >= min_consecutive_days consecutive local days."""
    retained = set()
    off = cfg.utc_offset_s
    for uid, traj in trajectories.items():
        days: set[int] = set()
        for stay in traj.stays:
            d0, d1 = local_day_span(stay.arrival, stay.departure, off)
            days.update(range(d0, d1 + 1))
        if _longest_consecutive_run(days) >= cfg.min_consecutive_days:
            retained.add(uid)
    return retained


def ingest_per_user(
    records_by_user: Mapping[str, Sequence[LocationRecord]], grid: GridSpec, cfg: IngestConfig
) -> tuple[dict[str, Trajectory], IngestStats]:
    """Per-user stay extraction, trajectory assembly, activity filter. Users
    are processed in sorted order; each user's pings are sorted by their full
    timestamps (stable)."""
    stats = IngestStats(users_total=len(records_by_user))
    trajectories: dict[str, Trajectory] = {}
    for uid in sorted(records_by_user):
        recs = sorted(records_by_user[uid], key=lambda r: r.timestamp)
        stays = extract_stays_one_user(recs, grid, cfg, stats)
        if stays:
            trajectories[uid] = build_trajectory(stays, cfg.tau_s)
    retained = filter_active_users(trajectories, cfg)
    trajectories = {u: t for u, t in trajectories.items() if u in retained}
    stats.users_retained = len(trajectories)
    return trajectories, stats


# ---------------------------------------------------------------------------
# Per-event aggregation: one event and one profile step at a time
# ---------------------------------------------------------------------------


def aggregate_per_event(
    index: AreaIndex, scaling: ScalingConfig, events: Iterable[ChargeEvent]
) -> tuple[dict[tuple[str, int], AreaAggregate], int]:
    """Scaled per-(area, day) aggregates of `events` summed one by one, and
    the number of events in cells outside every area."""
    steps = scaling.steps_per_day
    dt = 24.0 / steps
    sums: dict[tuple[str, int], list] = {}  # [discharge, pv, nonpv, profile]
    unassigned = 0
    for event in events:
        area = index.area_of(event.cell)
        if area is None:
            area = UNASSIGNED
            unassigned += 1
        acc = sums.setdefault((area, event.day), [0.0, 0.0, 0.0, np.zeros(steps)])
        if event.regime is Regime.DISCHARGE:
            acc[0] += event.energy_kwh
            continue
        if event.regime is Regime.PV_CHARGE:
            acc[1] += event.energy_kwh
        else:
            acc[2] += event.energy_kwh
        i0 = int(math.floor(event.start_hour / dt))
        i1 = min(int(math.ceil(event.end_hour / dt)), steps)
        for i in range(i0, i1):
            overlap = min(event.end_hour, (i + 1) * dt) - max(event.start_hour, i * dt)
            if overlap > 0:
                acc[3][i] += event.power_kw * overlap / dt
    scale = scaling.scale
    out = {}
    for key in sorted(sums):
        discharge, pv, nonpv, profile = sums[key]
        profile = profile * scale
        peak_step = int(np.argmax(profile))
        out[key] = AreaAggregate(
            key[0], key[1], discharge * scale, pv * scale, nonpv * scale,
            profile, float(profile[peak_step]), peak_step,
        )
    return out, unassigned


# ---------------------------------------------------------------------------
# Per-area index: every centroid against every edge, one edge at a time
# ---------------------------------------------------------------------------


def _ring_even_odd(lats: np.ndarray, lons: np.ndarray, ring: Ring) -> np.ndarray:
    """Even-odd crossing flags for each point against one ring."""
    y0, x0 = ring[:-1, 0], ring[:-1, 1]
    y1, x1 = ring[1:, 0], ring[1:, 1]
    inside = np.zeros(lats.shape, dtype=bool)
    for j in range(len(y0)):
        if y0[j] == y1[j]:
            continue  # horizontal edge never crosses the horizontal ray test
        cond = (y0[j] > lats) != (y1[j] > lats)
        if not np.any(cond):
            continue
        x_at = x0[j] + (lats - y0[j]) * (x1[j] - x0[j]) / (y1[j] - y0[j])
        inside ^= cond & (lons < x_at)
    return inside


def _ring_boundary(
    lats: np.ndarray, lons: np.ndarray, ring: Ring, eps: float = 1e-12
) -> np.ndarray:
    """Flags points lying on any edge of the ring (within eps, degree units)."""
    on = np.zeros(lats.shape, dtype=bool)
    y0, x0 = ring[:-1, 0], ring[:-1, 1]
    y1, x1 = ring[1:, 0], ring[1:, 1]
    for j in range(len(y0)):
        dy, dx = y1[j] - y0[j], x1[j] - x0[j]
        cross = dx * (lats - y0[j]) - dy * (lons - x0[j])
        lo_y, hi_y = min(y0[j], y1[j]) - eps, max(y0[j], y1[j]) + eps
        lo_x, hi_x = min(x0[j], x1[j]) - eps, max(x0[j], x1[j]) + eps
        on |= (
            (np.abs(cross) <= eps)
            & (lats >= lo_y) & (lats <= hi_y)
            & (lons >= lo_x) & (lons <= hi_x)
        )
    return on


def points_in_polygon(
    lats: np.ndarray, lons: np.ndarray, polygon: PolygonParts
) -> np.ndarray:
    """Boundary-inclusive even-odd point-in-polygon test, vectorised over points."""
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    result = np.zeros(lats.shape, dtype=bool)
    for part in polygon:
        inside = np.zeros(lats.shape, dtype=bool)
        for ring in part:
            inside ^= _ring_even_odd(lats, lons, ring)
        for ring in part:
            inside |= _ring_boundary(lats, lons, ring)
        result |= inside
    return result


def build_area_index_per_area(grid: GridSpec, areas: Iterable[PlanningArea]) -> AreaIndex:
    """Assign every cell centroid to a planning area (or none), testing the
    scattered centroids against each area's polygon in area_id order."""
    ordered = sorted(areas, key=lambda a: a.area_id)
    ids = [a.area_id for a in ordered]
    if len(set(ids)) != len(ids):
        raise InvalidInputError("duplicate area_id in planning areas")
    rows = np.arange(grid.n_rows, dtype=np.float64)
    cols = np.arange(grid.n_cols, dtype=np.float64)
    y = (rows + 0.5) * grid.cell_size_m
    x = (cols + 0.5) * grid.cell_size_m
    lat = grid.origin_lat + np.degrees(y / EARTH_RADIUS_M)
    lon = grid.origin_lon + np.degrees(
        x / (EARTH_RADIUS_M * math.cos(math.radians(grid.origin_lat)))
    )
    lat_g, lon_g = np.meshgrid(lat, lon, indexing="ij")
    lats, lons = lat_g.ravel(), lon_g.ravel()
    codes = np.full(lats.shape, -1, dtype=np.int32)
    for i, area in enumerate(ordered):
        open_mask = codes < 0
        if not np.any(open_mask):
            break
        hit = points_in_polygon(lats, lons, area.polygon)
        codes[open_mask & hit] = i
    return AreaIndex(grid, codes.reshape(grid.n_rows, grid.n_cols), ids)


# ---------------------------------------------------------------------------
# GeoJSON writer: the whole document through json.dumps
# ---------------------------------------------------------------------------


def write_feature_collection_json(
    features: Sequence[tuple[PlanningArea, dict]], path
) -> None:
    """Each area's geometry in (lon, lat) order with its properties, as one
    line of compact GeoJSON with sorted keys."""
    out = []
    for area, props in features:
        parts = [[ring[:, ::-1].tolist() for ring in part] for part in area.polygon]
        geometry = (
            {"type": "Polygon", "coordinates": parts[0]}
            if len(parts) == 1
            else {"type": "MultiPolygon", "coordinates": parts}
        )
        out.append({"type": "Feature", "geometry": geometry, "properties": props})
    doc = {"type": "FeatureCollection", "features": out}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")

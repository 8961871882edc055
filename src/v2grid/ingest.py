"""Location-record ingestion: grid binning, stay extraction with a minimum
stay time, trajectory assembly, and the consecutive-days activity filter.

A stay's interval is [first ping in cell, last ping in cell]; no presence is
extrapolated beyond observed pings. Same-cell stays separated by less than the
minimum stay time are merged during trajectory assembly (jitter smoothing).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .geo import CellId, GridSpec, locate_many

DAY_S = 86400


@dataclass(frozen=True, slots=True)
class LocationRecord:
    """One anonymised location ping."""

    user_id: str
    timestamp: datetime  # timezone-aware, UTC
    lat: float
    lon: float


@dataclass(frozen=True, slots=True)
class Stay:
    """Contiguous presence of a user in one grid cell, in UTC epoch seconds."""

    user_id: str
    cell: CellId
    arrival: int
    departure: int

    @property
    def duration_s(self) -> int:
        return self.departure - self.arrival


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered stays of one user."""

    user_id: str
    stays: tuple[Stay, ...]

    def __len__(self) -> int:
        return len(self.stays)


@dataclass(frozen=True)
class IngestConfig:
    tau_s: float = 3600.0  # minimum stay time
    min_consecutive_days: int = 5
    grid: GridSpec = GridSpec(0.0, 0.0)
    utc_offset_hours: float = 8.0  # local calendar used for day boundaries

    def __post_init__(self) -> None:
        if not self.tau_s > 0:
            raise InvalidInputError("tau must be positive")
        if self.min_consecutive_days < 1:
            raise InvalidInputError("min_consecutive_days must be >= 1")

    @property
    def utc_offset_s(self) -> int:
        return int(round(self.utc_offset_hours * 3600))


@dataclass
class IngestStats:
    """Counters surfaced as run warnings."""

    rows_skipped: int = 0
    records_out_of_grid: int = 0
    users_total: int = 0
    users_retained: int = 0
    stays_emitted: int = 0


def local_day_span(arrival_s: int, departure_s: int, utc_offset_s: int) -> tuple[int, int]:
    """First and last local epoch-day index that [arrival_s, departure_s)
    overlaps with positive duration; a zero-length stay lands on its arrival
    day."""
    d0 = (arrival_s + utc_offset_s) // DAY_S
    return d0, max(d0, (departure_s + utc_offset_s - 1) // DAY_S)


def extract_stays(
    records: Sequence[LocationRecord],
    cfg: IngestConfig,
    stats: Optional[IngestStats] = None,
) -> list[Stay]:
    """Turn one user's time-sorted pings into stays of duration >= tau.

    Maximal runs of consecutive pings in the same cell become candidate
    intervals [first ping, last ping]; runs shorter than tau are dropped.
    Pings outside the grid are dropped (counted in stats). Emitted stays that
    end up exactly adjacent in time in the same cell are merged. Timestamps
    are truncated to whole seconds.
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
        epochs[i] = int(r.timestamp.timestamp())
        lats[i] = r.lat
        lons[i] = r.lon
    if np.any(np.diff(epochs) < 0):
        raise InvalidInputError("records must be sorted by timestamp")

    rows, cols = locate_many(lats, lons, cfg.grid)
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
                f"{_format_epoch_s(prev.departure)} > {_format_epoch_s(cur.arrival)}"
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


def ingest_trajectories(
    records_by_user: Mapping[str, Sequence[LocationRecord]], cfg: IngestConfig
) -> tuple[dict[str, Trajectory], IngestStats]:
    """Full pipeline: per-user stay extraction, trajectory assembly, activity
    filter. Users are processed in sorted order, so the result is
    deterministic regardless of input ordering."""
    stats = IngestStats(users_total=len(records_by_user))
    trajectories: dict[str, Trajectory] = {}
    for uid in sorted(records_by_user):
        recs = sorted(records_by_user[uid], key=lambda r: r.timestamp)
        stays = extract_stays(recs, cfg, stats)
        if stays:
            trajectories[uid] = build_trajectory(stays, cfg.tau_s)
    retained = filter_active_users(trajectories, cfg)
    trajectories = {u: t for u, t in trajectories.items() if u in retained}
    stats.users_retained = len(trajectories)
    return trajectories, stats


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

RECORDS_HEADER = ["user_id", "timestamp", "lat", "lon"]
STAYS_HEADER = ["user_id", "cell_row", "cell_col", "arrival", "departure"]


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _format_epoch_s(epoch_s: int) -> str:
    return format_timestamp(datetime.fromtimestamp(epoch_s, tz=timezone.utc))


def read_records_csv(path) -> tuple[dict[str, list[LocationRecord]], int]:
    """Read the ingest CSV; malformed rows are skipped and counted.

    Returns (records grouped by user, skipped-row count). Records are not yet
    sorted; the pipeline sorts per user.
    """
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


def write_records_csv(records: Iterable[LocationRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORDS_HEADER)
        for r in records:
            writer.writerow(
                [r.user_id, format_timestamp(r.timestamp), f"{r.lat:.6f}", f"{r.lon:.6f}"]
            )


def write_stays_csv(stays: Iterable[Stay], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STAYS_HEADER)
        for s in stays:
            writer.writerow(
                [
                    s.user_id,
                    s.cell.row,
                    s.cell.col,
                    _format_epoch_s(s.arrival),
                    _format_epoch_s(s.departure),
                ]
            )

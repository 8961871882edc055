"""Location-record ingestion: grid binning, stay extraction with a minimum
stay time, trajectory assembly, and the consecutive-days activity filter.

A stay's interval is [first ping in cell, last ping in cell]; no presence is
extrapolated beyond observed pings. Same-cell stays separated by less than the
minimum stay time are merged during trajectory assembly (jitter smoothing).
"""

from __future__ import annotations

import csv
import gc
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import compress, groupby, islice
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import InvalidInputError
from .geo import CellId, GridSpec, locate_many

DAY_S = 86400
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def format_epoch(day: int, seconds: Optional[int] = None) -> str:
    """ISO 8601 text of epoch-day `day` (``YYYY-MM-DD``) or, given `seconds`
    past its midnight, of that instant (``YYYY-MM-DDTHH:MM:SS``, no zone).
    `seconds` may exceed a day, so ``format_epoch(0, epoch_s)`` renders epoch
    seconds. Years are zero-padded to four digits."""
    text = (_EPOCH + timedelta(days=day, seconds=seconds or 0)).isoformat()
    return text[:10] if seconds is None else text[:19]


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """`header` and `rows` as UTF-8 CSV with ``\\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True, slots=True)
class LocationRecord:
    """One anonymised location ping."""

    user_id: str
    timestamp: datetime  # timezone-aware, UTC
    lat: float
    lon: float


@dataclass(frozen=True, eq=False)
class Records:
    """Location pings as columns, one array entry per ping.

    Ping i belongs to user ``user_ids[user[i]]``; ``user_ids`` is sorted, so
    ordering by code orders by user id. ``t`` is the whole UTC epoch second a
    stay uses (the timestamp floored to the second), and ``sub_us`` the
    microseconds from there to the full timestamp, kept only to order pings
    within one second as their full timestamps order.
    """

    user_ids: tuple[str, ...]
    user: np.ndarray  # int64 index into user_ids
    t: np.ndarray  # int64
    sub_us: np.ndarray  # int64
    lat: np.ndarray  # float64
    lon: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def from_records(cls, records: Iterable[LocationRecord]) -> "Records":
        """The columns of `records`, pings in the order given."""
        index: dict[str, int] = {}
        codes, ts, subs, lats, lons = [], [], [], [], []
        for r in records:
            codes.append(index.setdefault(r.user_id, len(index)))
            t, sub = _epoch_parts(r.timestamp)
            ts.append(t)
            subs.append(sub)
            lats.append(r.lat)
            lons.append(r.lon)
        return _sorted_users(
            index,
            np.array(codes, dtype=np.int64),
            np.array(ts, dtype=np.int64),
            np.array(subs, dtype=np.int64),
            np.array(lats, dtype=np.float64),
            np.array(lons, dtype=np.float64),
        )


def _sorted_users(index: Mapping[str, int], codes: np.ndarray, *columns) -> Records:
    """Records whose user codes, given in `index` order, are renumbered to
    follow the sorted user ids."""
    names = list(index)
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    return Records(tuple(names[i] for i in order), rank[codes], *columns)


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
        if not math.isfinite(self.utc_offset_hours):
            raise InvalidInputError("utc_offset_hours must be finite")

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
    records: Records, cfg: IngestConfig, stats: Optional[IngestStats] = None
) -> list[Stay]:
    """Every user's stays of duration >= tau, in (user, arrival) order.

    Each user's pings are ordered by time (stable, so pings with equal
    timestamps keep their input order). Maximal runs of consecutive pings of
    one user in the same cell become candidate intervals [first ping, last
    ping]; runs shorter than tau are dropped. Pings outside the grid are
    dropped (counted in stats). Emitted stays of one user that end up exactly
    adjacent in time in the same cell are merged.
    """
    keys = (records.t, records.user)
    if records.sub_us.any():  # only sub-second timestamps need the third key
        keys = (records.sub_us,) + keys
    order = np.lexsort(keys)
    user, t = records.user[order], records.t[order]
    rows, cols = locate_many(records.lat[order], records.lon[order], cfg.grid)
    keep = rows >= 0
    dropped = int(np.count_nonzero(~keep))
    if stats is not None:
        stats.records_out_of_grid += dropped
    if dropped:
        user, t, rows, cols = user[keep], t[keep], rows[keep], cols[keep]
    if len(t) == 0:
        return []

    change = np.flatnonzero(
        (user[1:] != user[:-1]) | (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    )
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [len(t) - 1]))
    long_enough = t[ends] - t[starts] >= cfg.tau_s
    starts, ends = starts[long_enough], ends[long_enough]
    if len(starts) == 0:
        return []

    a, b = starts[1:], starts[:-1]
    touches = (
        (user[a] == user[b]) & (rows[a] == rows[b]) & (cols[a] == cols[b])
        & (t[a] == t[ends[:-1]])
    )
    first = np.flatnonzero(np.concatenate(([True], ~touches)))
    last = np.concatenate((first[1:], [len(starts)])) - 1
    s, e = starts[first], ends[last]
    names = records.user_ids
    stays = [
        Stay(names[u], CellId(r, c), arrival, departure)
        for u, r, c, arrival, departure in zip(
            user[s].tolist(), rows[s].tolist(), cols[s].tolist(),
            t[s].tolist(), t[e].tolist(),
        )
    ]
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


def ingest_trajectories(
    records: Records, cfg: IngestConfig
) -> tuple[dict[str, Trajectory], IngestStats]:
    """Full pipeline: stay extraction, per-user trajectory assembly, activity
    filter. Users come out in sorted order, so the result is deterministic
    regardless of input ordering."""
    stats = IngestStats(users_total=len(records.user_ids))
    trajectories = {
        uid: build_trajectory(list(stays), cfg.tau_s)
        for uid, stays in groupby(
            extract_stays(records, cfg, stats), key=attrgetter("user_id")
        )
    }
    retained = filter_active_users(trajectories, cfg)
    trajectories = {u: t for u, t in trajectories.items() if u in retained}
    stats.users_retained = len(trajectories)
    return trajectories, stats


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

RECORDS_HEADER = ["user_id", "timestamp", "lat", "lon"]
STAYS_HEADER = ["user_id", "cell_row", "cell_col", "arrival", "departure"]


_MICROSECOND = timedelta(microseconds=1)
_SECOND = timedelta(seconds=1)
_CHUNK_ROWS = 4096  # larger chunks cost memory and gain no speed

# separator positions and characters of YYYY-MM-DDTHH:MM:SSZ
_SEP_AT = [4, 7, 10, 13, 16, 19]
_SEP_CODES = np.array([ord(c) for c in "--T::Z"], dtype=np.uint32)
_DIGIT_AT = [i for i in range(20) if i not in _SEP_AT]


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _epoch_parts(ts: datetime) -> tuple[int, int]:
    """The epoch second a stay uses for `ts` (sub-second parts floored),
    and the microseconds in [0, 10**6) from it to `ts`."""
    return divmod((ts - _EPOCH) // _MICROSECOND, 1_000_000)


def _canonical_epochs(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of the texts of the exact form YYYY-MM-DDTHH:MM:SSZ
    that name a real UTC time, and the mask of those texts.

    Other forms (offsets, fractions, other separators) are left to
    `_parse_timestamp`: numpy's own datetime parser accepts strings that
    ``datetime.fromisoformat`` rejects, such as year 0 or a leading sign.
    """
    n = len(texts)
    ok = np.fromiter(map(len, texts), dtype=np.int64, count=n) == 20
    chars = np.array(texts, dtype="U20").view(np.uint32).reshape(n, 20)
    digits = chars[:, _DIGIT_AT] - np.uint32(ord("0"))  # non-digits wrap above 9
    ok &= (chars[:, _SEP_AT] == _SEP_CODES).all(axis=1) & (digits <= 9).all(axis=1)
    digits = np.where(ok[:, None], digits, 0).astype(np.int64)  # year 0 fails below
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    months = (year - 1970) * 12 + month - 1
    month_start = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    month_end = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= (day <= month_end - month_start) & (hour < 24) & (minute < 60) & (second < 60)
    t = (month_start + day - 1) * DAY_S + hour * 3600 + minute * 60 + second
    return np.where(ok, t, 0), ok


def _parse_timestamps(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, sub_us, ok) of each text as `_parse_timestamp` reads it; canonical
    texts take a vectorised path, the rest are parsed one by one."""
    t, ok = _canonical_epochs(texts)
    sub_us = np.zeros(len(texts), dtype=np.int64)
    for i in np.flatnonzero(~ok).tolist():
        try:
            t[i], sub_us[i] = _epoch_parts(_parse_timestamp(texts[i]))
        except (ValueError, OverflowError):
            continue
        ok[i] = True
    return t, sub_us, ok


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_floats(texts: Sequence[str]) -> np.ndarray:
    """float() of each text; NaN where float() rejects it."""
    try:
        return np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        return np.array([_float_or_nan(s) for s in texts], dtype=np.float64)


def format_timestamp(ts: datetime) -> str:
    """`ts` (timezone-aware) as ``YYYY-MM-DDTHH:MM:SSZ`` in UTC, sub-second
    parts floored."""
    return format_epoch(0, (ts - _EPOCH) // _SECOND) + "Z"


def read_records_csv(path) -> tuple[Records, int]:
    """Read the ingest CSV; malformed rows are skipped and counted.

    A row is malformed when it does not have four fields, its timestamp is
    not ISO 8601 (naive means UTC), a coordinate is not a float, or a
    coordinate is out of range. Returns (records, skipped-row count). Rows
    are read in chunks and kept in file order; ingest sorts them.
    """
    # csv.reader makes one list per row. Their number keeps triggering the
    # cyclic garbage collector, which finds nothing in lists of strings and
    # took a third of the read's time.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _read_records_csv(path)
    finally:
        if collecting:
            gc.enable()


def _read_records_csv(path) -> tuple[Records, int]:
    index: dict[str, int] = {}
    chunks: list[tuple[np.ndarray, ...]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and [h.strip() for h in header] != RECORDS_HEADER:
            raise InvalidInputError(
                f"records CSV must have header {','.join(RECORDS_HEADER)}"
            )
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            rows = [row for row in chunk if len(row) == 4]
            skipped += len(chunk) - len(rows)
            if not rows:
                continue
            uids, stamps, lat_texts, lon_texts = zip(*rows)
            t, sub_us, ok = _parse_timestamps(stamps)
            lat, lon = _parse_floats(lat_texts), _parse_floats(lon_texts)
            ok &= (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)
            skipped += len(rows) - int(np.count_nonzero(ok))
            uids = list(compress(uids, ok))
            for uid in dict.fromkeys(uids):
                index.setdefault(uid, len(index))
            codes = np.fromiter(map(index.__getitem__, uids), dtype=np.int64, count=len(uids))
            chunks.append((codes, t[ok], sub_us[ok], lat[ok], lon[ok]))
    # codes, t, sub_us, lat, lon; all there is for a file without data rows
    empty = (np.empty(0, np.int64),) * 3 + (np.empty(0, np.float64),) * 2
    columns = [np.concatenate(c) for c in zip(empty, *chunks)]
    return _sorted_users(index, *columns), skipped


def write_records_csv(records: Iterable[LocationRecord], path) -> None:
    write_csv(path, RECORDS_HEADER, (
        [r.user_id, format_timestamp(r.timestamp), f"{r.lat:.6f}", f"{r.lon:.6f}"]
        for r in records
    ))


def write_stays_csv(stays: Iterable[Stay], path) -> None:
    write_csv(path, STAYS_HEADER, (
        [
            s.user_id,
            s.cell.row,
            s.cell.col,
            format_epoch(0, s.arrival) + "Z",
            format_epoch(0, s.departure) + "Z",
        ]
        for s in stays
    ))

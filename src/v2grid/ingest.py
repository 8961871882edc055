"""Location-record ingestion: grid binning, stay extraction with a minimum
stay time, trajectory assembly, and the consecutive-days activity filter.

A stay's interval is [first ping in cell, last ping in cell]; no presence is
extrapolated beyond observed pings. Same-cell stays separated by less than the
minimum stay time are merged during trajectory assembly (jitter smoothing).
"""

from __future__ import annotations

import csv
import gc
import io
import math
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import compress, islice
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

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


# rows a column writer formats per slice: the text of one slice is at most a
# few MB, never the whole file
LINES_PER_SLICE = 1 << 14


def write_lines(path, header: Sequence[str], slices: Iterable[list[str]]) -> None:
    """The `write_csv` file of `header` (plain names) and rows already
    formatted as ``\\n``-terminated lines, given as lists of lines."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lines in slices:
            fh.write("".join(lines))


def csv_fields(texts: Iterable[str]) -> list[str]:
    """Each of `texts` as `write_csv` writes it in a row of several fields:
    quoted where `csv.writer` quotes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for text in texts:
        buf.seek(0)
        buf.truncate()
        writer.writerow((text, ""))  # a lone empty field would come out quoted
        fields.append(buf.getvalue()[:-2])
    return fields


_TWO_DIGITS = [f"{i:02d}" for i in range(60)]


class EpochText:
    """`format_epoch` of int columns, with each day label and each clock
    text formatted once."""

    def __init__(self) -> None:
        self._days: dict[int, str] = {}
        self._clocks: dict[int, str] = {}

    def days(self, day: list[int]) -> list[str]:
        """``format_epoch(d)`` of each d in `day`."""
        labels = self._days
        for d in set(day).difference(labels):
            labels[d] = format_epoch(d)
        return list(map(labels.__getitem__, day))

    def instants(self, day, seconds: np.ndarray) -> tuple[list[str], list[str]]:
        """``format_epoch(d, s)`` of each pair of `day` (an int or an array)
        and `seconds`, as its two parts: the day labels and the ``THH:MM:SS``
        clock texts."""
        days, seconds = np.divmod(seconds, DAY_S)
        clocks, two = self._clocks, _TWO_DIGITS
        seconds = seconds.tolist()
        for s in set(seconds).difference(clocks):
            clocks[s] = f"T{two[s // 3600]}:{two[s // 60 % 60]}:{two[s % 60]}"
        return self.days((days + day).tolist()), list(map(clocks.__getitem__, seconds))


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
    ordering by code orders by user id. ``t_us`` is the UTC epoch microsecond
    of the timestamp; pings order by it, and stays floor it to the second.
    """

    user_ids: tuple[str, ...]
    user: np.ndarray  # int64 index into user_ids
    t_us: np.ndarray  # int64
    lat: np.ndarray  # float64
    lon: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.t_us)

    @classmethod
    def from_records(cls, records: Iterable[LocationRecord]) -> "Records":
        """The columns of `records`, pings in the order given."""
        index: dict[str, int] = {}
        codes, ts, lats, lons = [], [], [], []
        for r in records:
            codes.append(index.setdefault(r.user_id, len(index)))
            ts.append((r.timestamp - _EPOCH) // _MICROSECOND)
            lats.append(r.lat)
            lons.append(r.lon)
        return _sorted_users(
            index,
            np.array(codes, dtype=np.int64),
            np.array(ts, dtype=np.int64),
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


@dataclass(frozen=True, eq=False)
class StayColumns(Mapping[str, Trajectory]):
    """Stays as columns, one array entry per stay, and a mapping of each
    user id to its `Trajectory`.

    Stay i belongs to user ``user_ids[user[i]]``, in cell ``(row[i],
    col[i])``, over UTC epoch seconds [arrival[i], departure[i]]. ``user_ids``
    is sorted and the stays of each user are contiguous, in user order; a
    user may have none. Iterating yields the user ids, and looking one up
    builds that user's `Trajectory`.
    """

    user_ids: tuple[str, ...]
    user: np.ndarray  # int64 index into user_ids, non-decreasing
    row: np.ndarray  # int64
    col: np.ndarray  # int64
    arrival: np.ndarray  # int64
    departure: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.user_ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.user_ids)

    def __getitem__(self, user_id: str) -> Trajectory:
        code = bisect_left(self.user_ids, user_id)
        if code == len(self.user_ids) or self.user_ids[code] != user_id:
            raise KeyError(user_id)
        a, b = self.user_range(code, code + 1)
        return Trajectory(user_id, tuple(
            Stay(user_id, CellId(r, c), arrival, departure)
            for r, c, arrival, departure in zip(*(
                column[a:b].tolist()
                for column in (self.row, self.col, self.arrival, self.departure)
            ))
        ))

    def user_range(self, first: int, stop: int) -> tuple[int, int]:
        """The slice of stays of users ``first`` to ``stop - 1``."""
        a, b = np.searchsorted(self.user, (first, stop)).tolist()
        return a, b

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Trajectory]) -> "StayColumns":
        """The stays of `trajectories`, each user's in the order given; the
        users come in sorted order."""
        users = sorted(trajectories, key=attrgetter("user_id"))
        stays = [
            (s.cell.row, s.cell.col, s.arrival, s.departure) for traj in users for s in traj.stays
        ]
        columns = np.array(stays, dtype=np.int64).reshape(-1, 4).T.copy()
        user = np.repeat(np.arange(len(users)), [len(traj.stays) for traj in users])
        return cls(tuple(traj.user_id for traj in users), user, *columns)


def utc_offset_seconds(hours: float) -> int:
    """A UTC offset in whole seconds; real offsets lie in [-12, 14] hours."""
    if not -12.0 <= hours <= 14.0:  # False for NaN too
        raise InvalidInputError(f"UTC offset {hours} h is not in [-12, 14] h")
    return int(round(hours * 3600))


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
        utc_offset_seconds(self.utc_offset_hours)

    @property
    def utc_offset_s(self) -> int:
        return utc_offset_seconds(self.utc_offset_hours)


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


def _runs(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of a non-empty sequence, where
    ``breaks[i]`` starts a new run at entry i + 1 (one entry fewer than the
    sequence)."""
    cut = np.flatnonzero(breaks)
    return np.concatenate(([0], cut + 1)), np.concatenate((cut, [len(breaks)]))


def _by_user_time(user: np.ndarray, t_us: np.ndarray, cell: np.ndarray) -> tuple:
    """`user`, `t_us` and `cell` (non-empty) in ``np.lexsort((t_us, user))``
    order: one stable argsort of ``user << b | (t_us - t_us.min())``, b the bit
    length of the `t_us` span, where that key fits in 63 bits."""
    t0 = int(t_us.min())
    b = (int(t_us.max()) - t0).bit_length()
    if int(user.max()).bit_length() + b > 63:
        order = np.lexsort((t_us, user))
        return user[order], t_us[order], cell[order]
    key = np.left_shift(user, b, dtype=np.int64) | (t_us - t0)
    order = np.argsort(key, kind="stable")
    key = key[order]  # only the key and cell are gathered, one at a time
    cell = cell[order]
    del order  # before t_us is made, so as not to add to the peak
    t_us = key & ((1 << b) - 1)
    t_us += t0
    key >>= b
    return key, t_us, cell


def _stay_columns(
    records: Records, cfg: IngestConfig, stats: Optional[IngestStats]
) -> tuple[np.ndarray, ...]:
    """(user, row, col, arrival, departure) of every stay, as `extract_stays`
    returns them."""
    # each ping's cell code row * n_cols + col, -1 out of the grid, binned
    # in slices so that locate_many's float temporaries stay small
    grid, step = cfg.grid, 1 << 14
    cell = np.empty(len(records), dtype=np.int64)
    for a in range(0, len(cell), step):
        rows, cols = locate_many(records.lat[a:a + step], records.lon[a:a + step], grid)
        cell[a:a + step] = np.where(rows >= 0, rows * grid.n_cols + cols, -1)
    dropped = int(np.count_nonzero(cell < 0))
    if stats is not None:
        stats.records_out_of_grid += dropped
    if dropped == len(cell):
        return (records.t_us[:0],) * 5
    user, t, cell = _by_user_time(records.user, records.t_us, cell)
    t //= 1_000_000
    if dropped:  # one column at a time, so the copies never all coexist
        keep = cell >= 0
        user = user[keep]
        t = t[keep]
        cell = cell[keep]

    starts, ends = _runs((user[1:] != user[:-1]) | (cell[1:] != cell[:-1]))
    long_enough = t[ends] - t[starts] >= cfg.tau_s
    starts, ends = starts[long_enough], ends[long_enough]
    if len(starts) == 0:
        return (t[:0],) * 5

    a, b = starts[1:], starts[:-1]
    touches = (user[a] == user[b]) & (cell[a] == cell[b]) & (t[a] == t[ends[:-1]])
    first, last = _runs(~touches)
    s, e = starts[first], ends[last]
    if stats is not None:
        stats.stays_emitted += len(s)
    row, col = np.divmod(cell[s], grid.n_cols)
    return user[s], row, col, t[s], t[e]


def _stays(names: Sequence[str], user, row, col, arrival, departure) -> list[Stay]:
    return [
        Stay(names[u], CellId(r, c), a, d)
        for u, r, c, a, d in zip(
            user.tolist(), row.tolist(), col.tolist(), arrival.tolist(), departure.tolist()
        )
    ]


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
    return _stays(records.user_ids, *_stay_columns(records, cfg, stats))


def ingest_trajectories(
    records: Records, cfg: IngestConfig
) -> tuple[StayColumns, IngestStats]:
    """Full pipeline over all users at once: stay extraction, the merge of
    same-cell stays less than tau apart, and the activity filter, which keeps
    users with stays on >= min_consecutive_days consecutive local days.
    Returns the retained users' stays as columns, users in sorted order. As
    in `extract_stays`, a user's pings with equal timestamps keep their input
    order, so only where they lie in different cells does that order matter."""
    stats = IngestStats(users_total=len(records.user_ids))
    user, row, col, arrival, departure = _stay_columns(records, cfg, stats)
    if len(user) == 0:
        return StayColumns((), user, row, col, arrival, departure), stats
    # stays never overlap and come in (user, arrival) order, so a same-cell
    # stay less than tau after the one before continues it
    first, last = _runs(
        (user[1:] != user[:-1]) | (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        | (arrival[1:] - departure[:-1] >= cfg.tau_s)
    )
    user, row, col = user[first], row[first], col[first]
    arrival, departure = arrival[first], departure[last]

    # local_day_span per stay (stays last at least tau > 0, so d1 >= d0);
    # each user's spans are in order and may share their end days, so a run
    # of consecutive days is a run of spans each starting at most one day
    # after the previous one ends
    off = cfg.utc_offset_s
    d0 = (arrival + off) // DAY_S
    d1 = (departure + off - 1) // DAY_S
    first, last = _runs((user[1:] != user[:-1]) | (d0[1:] > d1[:-1] + 1))
    active = np.zeros(len(records.user_ids), dtype=bool)
    active[user[first[d1[last] - d0[first] + 1 >= cfg.min_consecutive_days]]] = True
    kept = active[user]
    retained = np.flatnonzero(active)
    code = np.cumsum(active) - 1  # of each retained user among the retained
    stats.users_retained = len(retained)
    return StayColumns(
        tuple(records.user_ids[i] for i in retained.tolist()), code[user[kept]],
        row[kept], col[kept], arrival[kept], departure[kept],
    ), stats


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

RECORDS_HEADER = ["user_id", "timestamp", "lat", "lon"]
STAYS_HEADER = ["user_id", "cell_row", "cell_col", "arrival", "departure"]


_MICROSECOND = timedelta(microseconds=1)
_SECOND = timedelta(seconds=1)
# line-aligned read unit of the byte scan; the csv path takes rows in chunks
# of one row per 256 bytes of a block (4096 rows), as larger chunks cost
# memory and gain no speed
_BLOCK_BYTES = 1 << 20
_COMMA, _NEWLINE, _DOT, _MINUS, _ZERO = b",\n.-0"

# separator positions and characters of YYYY-MM-DDTHH:MM:SSZ
_SEP_AT = [4, 7, 10, 13, 16, 19]
_SEP_CODES = np.array([ord(c) for c in "--T::Z"], dtype=np.uint32)
_DIGIT_AT = [i for i in range(20) if i not in _SEP_AT]


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _canonical_epochs(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of the rows of `chars`, an (n, 20) array of character
    codes, that spell YYYY-MM-DDTHH:MM:SSZ and name a real UTC time, and the
    mask of those rows.

    Other forms (offsets, fractions, other separators) are left to
    `_parse_timestamp`: numpy's own datetime parser accepts strings that
    ``datetime.fromisoformat`` rejects, such as year 0 or a leading sign.
    """
    digits = chars[:, _DIGIT_AT] - chars.dtype.type(ord("0"))  # non-digits wrap above 9
    ok = (chars[:, _SEP_AT] == _SEP_CODES).all(axis=1) & (digits <= 9).all(axis=1)
    # the other rows give garbage from here on, and are masked out
    pairs = digits.astype(np.int32)
    century, year, month, day, hour, minute, second = (pairs[:, 0::2] * 10 + pairs[:, 1::2]).T
    year += century * 100
    ok &= (year >= 1) & (month >= 1) & (month <= 12)
    # first days of the months from the earliest to one past the latest
    months = (year - 1970) * 12 + month - 1
    lo, hi = (int(months[ok].min()), int(months[ok].max())) if ok.any() else (0, 0)
    starts = np.arange(lo, hi + 2).astype("datetime64[M]").astype("datetime64[D]")
    starts = starts.astype(np.int64)
    m = np.where(ok, months - lo, 0)
    ok &= (day >= 1) & (day <= starts[m + 1] - starts[m])
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    t = (starts[m] + day - 1) * DAY_S + hour * 3600 + minute * 60 + second
    return np.where(ok, t, 0), ok


def _parse_timestamps(
    canonical: np.ndarray, chars: np.ndarray, text
) -> tuple[np.ndarray, np.ndarray]:
    """(epoch microseconds, ok) of n timestamps as `_parse_timestamp` reads
    them. `canonical` masks the stamps 20 characters long and `chars` holds
    their codes, which `_canonical_epochs` reads; the rest are parsed one by
    one from ``text(i)``."""
    t, ok_canonical = _canonical_epochs(chars)
    t_us = np.zeros(len(canonical), dtype=np.int64)
    ok = np.zeros(len(canonical), dtype=bool)
    t_us[canonical], ok[canonical] = t * 1_000_000, ok_canonical
    for i in np.flatnonzero(~ok).tolist():
        try:
            t_us[i] = (_parse_timestamp(text(i)) - _EPOCH) // _MICROSECOND
        except (ValueError, OverflowError):
            continue
        ok[i] = True
    return t_us, ok


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


def _in_range(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    return (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)


def format_timestamp(ts: datetime) -> str:
    """`ts` (timezone-aware) as ``YYYY-MM-DDTHH:MM:SSZ`` in UTC, sub-second
    parts floored."""
    return format_epoch(0, (ts - _EPOCH) // _SECOND) + "Z"


def read_records_csv(path) -> tuple[Records, int]:
    """Read the ingest CSV; malformed rows are skipped and counted.

    A row is malformed when it does not have four fields, its timestamp is
    not ISO 8601 (naive means UTC), a coordinate is not a float, or a
    coordinate is out of range. Returns (records, skipped-row count); rows
    are kept in file order, and ingest sorts them.

    The file is scanned as bytes in line-aligned blocks of about
    `_BLOCK_BYTES`, with the same results as `csv.reader`: on text without
    quotes or carriage returns a line with three commas is a four-field row
    and any other line a malformed one. From the first block that holds a
    quote, a carriage return, a NUL, a non-ASCII byte or a line longer than
    ``csv.field_size_limit()`` on, `csv.reader` reads the rest of the file
    as UTF-8 text.
    """
    try:
        return _read_records_csv(path)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInputError(f"records CSV {path} cannot be read: {exc}") from exc


def _check_header(header: Sequence[str]) -> None:
    if [h.strip() for h in header] != RECORDS_HEADER:
        raise InvalidInputError(f"records CSV must have header {','.join(RECORDS_HEADER)}")


def _append(columns: tuple[array, ...], *values: np.ndarray) -> None:
    """Append each of `values` to its buffer in `columns`: user codes, t_us,
    lat and lon of the rows read so far. A buffer grows in place, so the
    rows never sit in the heap as chunks between the scan's temporaries, and
    no concatenation doubles them at the end."""
    for column, value in zip(columns, values):
        column.frombytes(memoryview(value).cast("B"))


def _read_records_csv(path) -> tuple[Records, int]:
    index: dict[str, int] = {}
    columns = (array("q"), array("q"), array("d"), array("d"))
    skipped = 0
    header_read = False
    with open(path, "rb") as fh:
        while True:
            at = fh.tell()
            if not (block := fh.read(_BLOCK_BYTES)):
                break
            if block[-1] != _NEWLINE:
                block += fh.readline()
            if block[-1] != _NEWLINE:  # the last line, without its newline
                block += b"\n"
            ends = _line_ends(block)
            if ends is None:
                fh.seek(at)
                with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
                    skipped += _read_csv_rows(text, header_read, index, columns)
                break
            lo = 0
            if not header_read:
                _check_header(block[:ends[0]].decode("ascii").split(","))
                header_read, lo, ends = True, int(ends[0]) + 1, ends[1:]
            if len(ends):
                data = np.frombuffer(block, dtype=np.uint8)
                skipped += _scan_rows(data, lo, ends, index, columns)
    return _sorted_users(index, *(np.frombuffer(c, dtype=c.typecode) for c in columns)), skipped


def _line_ends(block: bytes) -> Optional[np.ndarray]:
    """Offsets of the newlines that end the lines of `block`, or None when
    `csv.reader` must read it: for a quote, a carriage return, a NUL, a
    non-ASCII byte or a line longer than the field size limit."""
    if not block.isascii() or b'"' in block or b"\r" in block or b"\0" in block:
        return None
    ends = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == _NEWLINE)
    limit = csv.field_size_limit()
    if len(block) > limit and np.diff(ends, prepend=-1).max() > limit + 1:
        return None
    return ends


def _windows(data: np.ndarray, start: np.ndarray, width: int) -> np.ndarray:
    """(len(start), width) array of the bytes ``data[s:s + width]`` for each
    s in `start`, zero past the end of `data`."""
    if int(start.max(initial=0)) + width > len(data):
        data = np.concatenate((data, np.zeros(width, dtype=np.uint8)))
    return np.lib.stride_tricks.sliding_window_view(data, width)[start]


def _scan_rows(
    data: np.ndarray, lo: int, ends: np.ndarray, index: dict[str, int], columns: tuple
) -> int:
    """Append to `columns` the rows of the plain ASCII lines ``data[lo:]``,
    which end at `ends`; returns the number of rows skipped. User codes come
    from and go into `index`."""
    starts = np.concatenate(([lo], ends[:-1] + 1))
    commas = np.flatnonzero(data[lo:] == _COMMA) + lo
    before = np.searchsorted(commas, ends)  # commas before each line end
    rows = np.flatnonzero(np.diff(before, prepend=0) == 3)
    c1, c2, c3 = (commas[before[rows] - j] for j in (3, 2, 1))

    canonical = c2 - c1 == 21
    t_us, ok = _parse_timestamps(
        canonical, _windows(data, c1[canonical] + 1, 20),
        lambda i: data[c1[i] + 1:c2[i]].tobytes().decode("ascii"),
    )
    dots = np.append(np.flatnonzero(data == _DOT), len(data))
    lat = _parse_coordinates(data, dots, c2 + 1, c3)
    lon = _parse_coordinates(data, dots, c3 + 1, ends[rows])
    keep = np.flatnonzero(ok & _in_range(lat, lon))
    codes = _user_codes(data, starts[rows[keep]], c1[keep], index)
    _append(columns, codes, t_us[keep], lat[keep], lon[keep])
    return len(ends) - len(keep)


def _parse_coordinates(
    data: np.ndarray, dots: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> np.ndarray:
    """float() of each field ``data[start:stop]``; NaN where float() raises.

    The fields are grouped by template: length, offset of the first dot and
    a leading minus. In a template of 1 to 15 digits the digits make an
    integer significand below 2**53 and the dot a power of ten 10**k that
    float64 holds exactly, so one IEEE division gives the correctly rounded
    value, as float() does (Clinger's fast path). A field with a non-digit
    in a digit place, and every other field, goes through float().
    """
    length = stop - start
    neg = data[start] == _MINUS  # a field ends before a comma or newline
    dot = dots[np.searchsorted(dots, start)] - start
    dot = np.where(dot < length, dot, -1)
    n_digits = length - neg - (dot >= 0)
    key = np.where((n_digits >= 1) & (n_digits <= 15), (length * 32 + dot + 1) * 2 + neg, -1)
    order = np.argsort(key.astype(np.int16), kind="stable")  # a radix sort
    key = key[order]
    firsts = np.flatnonzero(np.diff(key, prepend=-2))
    out = np.empty(len(start))
    parsed = np.zeros(len(start), dtype=bool)
    for k, at in zip(key[firsts].tolist(), np.split(order, firsts[1:])):
        if k < 0:
            continue
        width, d = k >> 6, ((k >> 1) & 31) - 1
        places = [j for j in range(k & 1, width) if j != d]
        digits = _windows(data, start[at], width)[:, places] - np.uint8(_ZERO)
        # each partial sum is an integer below 2**53, so float64 holds it exactly
        powers = (10 ** np.arange(len(places) - 1, -1, -1)).astype(np.float64)
        decimals = width - 1 - d if d >= 0 else 0
        value = (digits.astype(np.float64) @ powers) / float(10**decimals)
        out[at] = -value if k & 1 else value
        parsed[at] = (digits <= 9).all(axis=1)
    for i in np.flatnonzero(~parsed).tolist():
        out[i] = _float_or_nan(data[start[i]:stop[i]].tobytes().decode("ascii"))
    return out


def _user_codes(
    data: np.ndarray, start: np.ndarray, stop: np.ndarray, index: dict[str, int]
) -> np.ndarray:
    """Codes in `index` of the user ids ``data[start:stop]``; new ids are
    added to it, in sorted order.

    Where ids come in runs (a file grouped by user), only the first id of
    each run is sorted: when the runs are fewer than half the rows."""
    length = stop - start
    width = max(1, int(length.max(initial=0)))
    names = _windows(data, start, width)
    names[np.arange(width) >= length[:, None]] = 0  # NUL-padded, as numpy bytes are
    names = names.view(f"S{width}")[:, 0]
    heads = np.flatnonzero(np.concatenate(([True], names[1:] != names[:-1])))
    runs = None
    if 2 * len(heads) < len(names):
        runs = np.diff(np.append(heads, len(names)))
        names = names[heads]
    distinct, inverse = np.unique(names, return_inverse=True)
    codes = [index.setdefault(name.decode("ascii"), len(index)) for name in distinct.tolist()]
    codes = np.array(codes, dtype=np.int64)[inverse]
    return codes if runs is None else np.repeat(codes, runs)


def _read_csv_rows(text, header_read: bool, index: dict[str, int], columns: tuple) -> int:
    """Append to `columns` the rows `csv.reader` reads from `text`, after
    the header unless `header_read`; returns the number of rows skipped.
    User codes come from and go into `index`."""
    reader = csv.reader(text)
    if not header_read and (header := next(reader, None)) is not None:
        _check_header(header)
    # csv.reader makes one list per row. Their number keeps triggering the
    # cyclic garbage collector, which finds nothing in lists of strings and
    # took a third of the read's time.
    collecting = gc.isenabled()
    gc.disable()
    try:
        skipped = 0
        while chunk := list(islice(reader, max(1, _BLOCK_BYTES // 256))):
            rows = [row for row in chunk if len(row) == 4]
            skipped += len(chunk) - len(rows)
            if not rows:
                continue
            uids, stamps, lat_texts, lon_texts = zip(*rows)
            canonical = np.fromiter(map(len, stamps), dtype=np.int64, count=len(stamps)) == 20
            chars = np.array(stamps, dtype="U20")[canonical].view(np.uint32).reshape(-1, 20)
            t_us, ok = _parse_timestamps(canonical, chars, stamps.__getitem__)
            lat, lon = _parse_floats(lat_texts), _parse_floats(lon_texts)
            ok &= _in_range(lat, lon)
            skipped += len(rows) - int(np.count_nonzero(ok))
            uids = list(compress(uids, ok))
            for uid in dict.fromkeys(uids):
                index.setdefault(uid, len(index))
            codes = np.fromiter(map(index.__getitem__, uids), dtype=np.int64, count=len(uids))
            _append(columns, codes, t_us[ok], lat[ok], lon[ok])
        return skipped
    finally:
        if collecting:
            gc.enable()


def write_records_csv(records: Iterable[LocationRecord], path) -> None:
    write_csv(path, RECORDS_HEADER, (
        [r.user_id, format_timestamp(r.timestamp), f"{r.lat:.6f}", f"{r.lon:.6f}"]
        for r in records
    ))


def write_stays_csv(stays: StayColumns, path) -> None:
    """One row per stay, stamps as ``YYYY-MM-DDTHH:MM:SSZ`` in UTC."""
    names = csv_fields(stays.user_ids)
    text = EpochText()

    def lines(a: int, b: int) -> list[str]:
        (a_day, a_clock), (d_day, d_clock) = (
            text.instants(0, t[a:b]) for t in (stays.arrival, stays.departure)
        )
        return [
            f"{names[u]},{r},{c},{ad}{ac}Z,{dd}{dc}Z\n"
            for u, r, c, ad, ac, dd, dc in zip(
                stays.user[a:b].tolist(), stays.row[a:b].tolist(), stays.col[a:b].tolist(),
                a_day, a_clock, d_day, d_clock,
            )
        ]

    n = len(stays.arrival)
    write_lines(path, STAYS_HEADER, (
        lines(a, a + LINES_PER_SLICE) for a in range(0, n, LINES_PER_SLICE)
    ))

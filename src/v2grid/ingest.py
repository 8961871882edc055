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
import os
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


class EpochText:
    """`format_epoch` of int columns, with each day label formatted once
    and the clock texts in one numpy pass."""

    def __init__(self) -> None:
        self._days: dict[int, str] = {}

    def days(self, day: list[int]) -> list[str]:
        """``format_epoch(d)`` of each d in `day`."""
        labels = self._days
        for d in set(day).difference(labels):
            labels[d] = format_epoch(d)
        return list(map(labels.__getitem__, day))

    def instants(self, day, seconds: np.ndarray) -> tuple[list[str], list[str]]:
        """``format_epoch(d, s)`` of each pair of `day` (an int or an array)
        and `seconds`, as its two parts: the day labels and the ``THH:MM:SS``
        clock texts. A clock text is a row of nine UCS-4 code points, read
        as one ``U9`` string."""
        days, seconds = np.divmod(seconds, DAY_S)
        codes = np.empty((len(seconds), 9), dtype=np.uint32)
        codes[:, 0] = ord("T")
        codes[:, 3] = codes[:, 6] = ord(":")
        for col, value in ((1, seconds // 3600), (4, seconds // 60 % 60), (7, seconds % 60)):
            codes[:, col], codes[:, col + 1] = np.divmod(value, 10)
        codes[:, [1, 2, 4, 5, 7, 8]] += ord("0")
        return self.days((days + day).tolist()), codes.view("U9").ravel().tolist()


@dataclass(frozen=True, slots=True)
class LocationRecord:
    """One anonymised location ping."""

    user_id: str
    timestamp: datetime  # timezone-aware, UTC
    lat: float
    lon: float


@dataclass(frozen=True, eq=False)
class Records:
    """Location pings as columns, one array entry per ping, each located in
    `grid`: 16 bytes per ping. Ingest takes its stays' cells from `grid`.

    Ping i belongs to user ``user_ids[user[i]]``; ``user_ids`` is sorted, so
    ordering by code orders by user id. ``t_us`` is the UTC epoch microsecond
    of the timestamp; pings order by it, and stays floor it to the second.
    ``cell`` holds the code ``row * grid.n_cols + col`` of the ping's cell,
    -1 out of the grid.
    """

    user_ids: tuple[str, ...]
    user: np.ndarray  # int32 index into user_ids
    t_us: np.ndarray  # int64
    cell: np.ndarray  # int32
    grid: GridSpec

    def __len__(self) -> int:
        return len(self.t_us)

    @classmethod
    def from_records(cls, records: Iterable[LocationRecord], grid: GridSpec) -> "Records":
        """The columns of `records`, located in `grid`, pings in the order
        given."""
        index: dict[str, int] = {}
        codes, ts, lats, lons = [], [], [], []
        for r in records:
            codes.append(index.setdefault(r.user_id, len(index)))
            ts.append((r.timestamp - _EPOCH) // _MICROSECOND)
            lats.append(r.lat)
            lons.append(r.lon)
        return cls(
            *_sorted_users(index, np.array(codes, dtype=np.int32)),
            np.array(ts, dtype=np.int64),
            _cell_codes(np.array(lats, dtype=np.float64), np.array(lons, dtype=np.float64), grid),
            grid,
        )


# codes `_sorted_users` renumbers per slice: 256 KiB of temporaries
_RENUMBER_SLICE = 1 << 16


def _sorted_users(
    index: Mapping[str, int], codes: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray]:
    """The user ids of `index`, sorted, and `codes`, given in `index` order,
    renumbered in place to follow them, one slice at a time, so that no
    second user column is made."""
    names = list(index)
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int32)
    rank[order] = np.arange(len(names))
    for a in range(0, len(codes), _RENUMBER_SLICE):
        part = codes[a:a + _RENUMBER_SLICE]
        part[:] = rank[part]
    return tuple(names[i] for i in order), codes


def _cell_codes(lat: np.ndarray, lon: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The int32 code ``row * grid.n_cols + col`` of each point's cell, -1
    out of the grid. A run of points equal to the one before (the pings of
    a stay) is located once, where the runs are fewer than half the points
    (`_run_heads`): equal floats, 0.0 and -0.0 too, lie in one cell."""
    found = _run_heads((lat, lon))
    if found is not None:
        heads, runs = found
        lat, lon = lat[heads], lon[heads]
    rows, cols = locate_many(lat, lon, grid)
    codes = np.where(rows >= 0, rows * grid.n_cols + cols, -1).astype(np.int32)
    return codes if found is None else np.repeat(codes, runs)


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
    """Stay extraction and activity-filter settings. The grid is not one of
    them: ingest uses the grid its `Records` were located in."""

    tau_s: float = 3600.0  # minimum stay time
    min_consecutive_days: int = 5
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

    records_out_of_grid: int = 0
    users_total: int = 0
    users_retained: int = 0
    stays_emitted: int = 0


def local_day_span(arrival_s, departure_s, utc_offset_s: int) -> tuple:
    """First and last local epoch-day index that [arrival_s, departure_s)
    overlaps with positive duration; a zero-length stay lands on its arrival
    day. Takes ints or int arrays of stays."""
    d0 = (arrival_s + utc_offset_s) // DAY_S
    return d0, np.maximum(d0, (departure_s + utc_offset_s - 1) // DAY_S)


def _run_heads(columns: Iterable[np.ndarray]) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The first index and the length of each run of entries that equal the
    entry before them in every one of `columns`, equally long 1-D arrays;
    None when the runs are not fewer than half the entries. The columns
    are drawn from `columns` one at a time, and none after the runs reach
    half the entries, so entries without runs cost one comparison."""
    new = None
    for column in columns:
        if new is None:
            new = column[1:] != column[:-1]  # whether entry i + 1 starts a run
        else:
            new |= column[1:] != column[:-1]
        if 2 * (np.count_nonzero(new) + 1) >= len(column):
            return None
    heads = np.flatnonzero(np.concatenate(([True], new)))
    return heads, np.diff(np.append(heads, len(new) + 1))


def _row_words(lines: np.ndarray) -> Iterator[np.ndarray]:
    """Columns that together hold every byte of the rows of `lines`, a 2-D
    array whose rows are contiguous in memory, so that two rows are equal
    when their entries in every column are: the big-endian uint64 word at
    every 8th byte of a row and the one that ends at its last byte, or the
    bytes themselves when a row holds fewer than 8. They are made one at a
    time, as views."""
    rows = lines.view(np.uint8)
    width = rows.shape[1]
    if width < 8:
        yield from rows.T
        return
    for j in sorted({*range(0, width - 7, 8), width - 8}):
        yield rows[:, j:j + 8].view(">u8")[:, 0]


def _runs(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of a non-empty sequence, where
    ``breaks[i]`` starts a new run at entry i + 1 (one entry fewer than the
    sequence)."""
    cut = np.flatnonzero(breaks)
    return np.concatenate(([0], cut + 1)), np.concatenate((cut, [len(breaks)]))


def _by_user_time(user: np.ndarray, t_us: np.ndarray, cell: np.ndarray) -> tuple:
    """`user`, `t_us` and `cell` (non-empty) in ``np.lexsort((t_us, user))``
    order.

    Input already in that order (grouped by user, each user's pings in
    time order, as `v2grid synth` writes them) is found by an O(n) check
    that makes only bool temporaries, and the three columns are returned
    as given: nothing is sorted, gathered or copied. Where `t_us` is
    non-decreasing (a feed in time order) the order is a stable sort of the
    user codes alone: an LSD radix sort, one stable argsort of each 16 bits
    of the codes as `uint16`, which numpy radix-sorts. The sorted codes are
    then counted out, not gathered, unless they are too sparse. Otherwise
    the order is one stable argsort of ``user << b | (t_us - t_us.min())``,
    b the bit length of the `t_us` span, where that key fits in 63 bits,
    and `np.lexsort` where it does not. Columns are gathered one at a time.
    The given columns are never written to."""
    # whether each ping comes after the one before it in (user, t_us) order
    in_order = user[1:] == user[:-1]
    in_order &= t_us[1:] >= t_us[:-1]
    in_order |= user[1:] > user[:-1]
    if in_order.all():
        return user, t_us, cell
    del in_order
    top = int(user.max())
    if (t_us[1:] >= t_us[:-1]).all():
        order = np.argsort(user.astype(np.uint16), kind="stable")  # the low 16 bits
        for shift in range(16, top.bit_length(), 16):
            digit = (user[order] >> shift).astype(np.uint16)
            order = order[np.argsort(digit, kind="stable")]
        t_us, cell = t_us[order], cell[order]
        if top >= len(user):  # codes too sparse to count
            return user[order], t_us, cell
        del order  # before user is made, so as not to add to the peak
        return np.repeat(np.arange(top + 1), np.bincount(user)), t_us, cell
    t0 = int(t_us.min())
    b = (int(t_us.max()) - t0).bit_length()
    if top.bit_length() + b > 63:
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
    returns them, the cells those of ``records.grid``.

    Stamps are floored to the second only at the first and last ping of
    each run, so no per-ping seconds column is made; on grouped input
    with every ping in the grid, ingest holds only masks and run arrays
    beside the records. The columns of `records` are never written to."""
    cell = records.cell
    dropped = int(np.count_nonzero(cell < 0))
    if stats is not None:
        stats.records_out_of_grid += dropped
    if dropped == len(cell):
        return (records.t_us[:0],) * 5
    user, t_us, cell = _by_user_time(records.user, records.t_us, cell)
    if dropped:  # one column at a time, so the copies never all coexist
        keep = cell >= 0
        user = user[keep]
        t_us = t_us[keep]
        cell = cell[keep]

    breaks = user[1:] != user[:-1]
    breaks |= cell[1:] != cell[:-1]
    starts, ends = _runs(breaks)
    del breaks
    t0, t1 = t_us[starts] // 1_000_000, t_us[ends] // 1_000_000
    long_enough = t1 - t0 >= cfg.tau_s
    starts, t0, t1 = starts[long_enough], t0[long_enough], t1[long_enough]
    if len(starts) == 0:
        return (records.t_us[:0],) * 5

    a, b = starts[1:], starts[:-1]
    touches = (user[a] == user[b]) & (cell[a] == cell[b]) & (t0[1:] == t1[:-1])
    first, last = _runs(~touches)
    s = starts[first]
    if stats is not None:
        stats.stays_emitted += len(s)
    row, col = np.divmod(cell[s].astype(np.int64), records.grid.n_cols)
    return user[s], row, col, t0[first], t1[last]


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

    # each user's day spans are in order and may share their end days, so a
    # run of consecutive days is a run of spans each starting at most one day
    # after the previous one ends
    d0, d1 = local_day_span(arrival, departure, cfg.utc_offset_s)
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


def _stamp_form(template: str, first: int = 0) -> tuple[list[int], list[int], list[int]]:
    """Separator positions, their character codes and the digit positions of
    a stamp form from its character `first` on, whose digits are 0s and
    whose offset sign is a +."""
    seps = [i for i, c in enumerate(template) if i >= first and c not in "0+"]
    digits = [i for i, c in enumerate(template) if i >= first and c == "0"]
    return seps, [ord(template[i]) for i in seps], digits


# the date part of the stamp forms `_canonical_epochs` reads, and the rest
# of each form, by length
_DATE_FORM = _stamp_form("0000-00-00")
_STAMP_FORMS = {
    len(t): _stamp_form(t, len("0000-00-00"))
    for t in ("0000-00-00T00:00:00Z", "0000-00-00T00:00:00+00:00")
}
_SIGN_AT = 19  # of the offset form
# epoch seconds of 0001-01-01T00:00:00 and 9999-12-31T23:59:59 UTC
_FIRST_S, _LAST_S = -62135596800, 253402300799


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _form_pairs(chars: np.ndarray, form) -> tuple[np.ndarray, np.ndarray]:
    """The two-digit numbers in the digit places of `form` (a `_stamp_form`)
    of each row of `chars`, and the mask of the rows with digits there and
    the form's separators; the other rows give garbage numbers."""
    sep_at, sep_codes, digit_at = form
    # one contiguous row per digit place; non-digits wrap above 9
    digits = chars.T[digit_at] - chars.dtype.type(ord("0"))
    ok = digits.max(axis=0) <= 9
    for at, code in zip(sep_at, sep_codes):
        ok &= chars[:, at] == code
    pairs = digits[0::2].astype(np.int32)
    pairs *= 10
    pairs += digits[1::2]
    return pairs, ok


def _epoch_days(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch day of each row of `chars`, an (n, 10) array of character
    codes, and the mask of the rows that spell YYYY-MM-DD and name a real
    date of years 1 to 9999; the other rows give garbage days."""
    (century, year, month, day), ok = _form_pairs(chars, _DATE_FORM)
    year += century * 100
    ok &= (year >= 1) & (month >= 1) & (month <= 12)
    # first days of the months from the earliest to one past the latest
    months = (year - 1970) * 12 + month - 1
    lo, hi = (int(months[ok].min()), int(months[ok].max())) if ok.any() else (0, 0)
    starts = np.arange(lo, hi + 2).astype("datetime64[M]").astype("datetime64[D]")
    starts = starts.astype(np.int64)
    m = np.where(ok, months - lo, 0)
    ok &= (day >= 1) & (day <= np.diff(starts)[m])
    return starts[m] + day - 1, ok


def _canonical_epochs(chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of the rows of `chars`, an (n, 20) or (n, 25) array of
    character codes whose rows are contiguous in memory, and the mask of
    the rows read. A row of 20 is read when it spells YYYY-MM-DDTHH:MM:SSZ
    and names a real UTC time; a row of 25 when it spells
    YYYY-MM-DDTHH:MM:SS±HH:MM, names a real local time, its offset has
    hours <= 23 and minutes <= 59, and the UTC time lies in years 1 to 9999.

    The date is read once per run of rows whose ten date characters equal
    the row before, where the runs are fewer than half the rows
    (`_run_heads`): a feed grouped by user or in time order repeats a date
    for hours. The clock and the offset are read on every row.

    Other forms (fractions, other separators, offset minutes of 60 or more,
    which ``datetime.fromisoformat`` accepts) and the rows not read are left
    to `_parse_timestamp`: numpy's own datetime parser accepts strings that
    ``datetime.fromisoformat`` rejects, such as year 0 or a leading sign.
    """
    date = chars[:, :10]
    found = _run_heads(_row_words(date))
    day, ok = _epoch_days(date if found is None else date[found[0]])
    if found is not None:
        day, ok = np.repeat(day, found[1]), np.repeat(ok, found[1])
    (hour, minute, second, *offset), clock_ok = _form_pairs(chars, _STAMP_FORMS[chars.shape[1]])
    ok &= clock_ok
    # the rows not ok give garbage from here on, and are masked out
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    t = day * DAY_S + hour * 3600 + minute * 60 + second
    if offset:
        off_hour, off_minute = offset
        sign = chars[:, _SIGN_AT]
        ok &= (sign == ord("+")) | (sign == ord("-"))
        ok &= (off_hour <= 23) & (off_minute <= 59)
        off = off_hour * 3600 + off_minute * 60
        t -= np.where(sign == ord("-"), -off, off)
        ok &= (t >= _FIRST_S) & (t <= _LAST_S)
    return np.where(ok, t, 0), ok


def _parse_timestamps(length: np.ndarray, chars, text) -> tuple[np.ndarray, np.ndarray]:
    """(epoch microseconds, ok) of the timestamps of `length` characters, as
    `_parse_timestamp` reads them. ``chars(rows, width)`` gives the codes of
    the stamps `rows`, each `width` long, for `_canonical_epochs`; the stamps
    it does not read are parsed one by one from ``text(i)``."""
    t_us = np.zeros(len(length), dtype=np.int64)
    ok = np.zeros(len(length), dtype=bool)
    for width in _STAMP_FORMS:
        rows = np.flatnonzero(length == width)
        t, ok[rows] = _canonical_epochs(chars(rows, width))
        t_us[rows] = t * 1_000_000
    _parse_stamps_left(t_us, ok, text)
    return t_us, ok


def _parse_stamps_left(t_us: np.ndarray, ok: np.ndarray, text) -> None:
    """Parse the timestamps not yet read, where `ok` is False, one by one
    from ``text(i)`` into `t_us`, setting `ok` where they parse."""
    for i in np.flatnonzero(~ok).tolist():
        try:
            t_us[i] = (_parse_timestamp(text(i)) - _EPOCH) // _MICROSECOND
        except (ValueError, OverflowError):
            continue
        ok[i] = True


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


def read_records_csv(path, grid: GridSpec) -> tuple[Records, int]:
    """Read the ingest CSV, its pings located in `grid`; malformed rows are
    skipped and counted.

    A row is malformed when it does not have four fields, its timestamp is
    not ISO 8601 (naive means UTC), a coordinate is not a float, or a
    coordinate is out of range. Returns (records, skipped-row count); rows
    are kept in file order, and ingest sorts them.

    Each block's kept rows are located in `grid` with one `locate_many`
    call as they are read (`_cell_codes`), so only int32 user codes, int64
    `t_us` and int32 cell codes are kept: 16 bytes per ping. `GridSpec`
    keeps a grid's cell codes within int32. The three columns are numpy
    arrays sized once, from the rows per byte of the file read so far times
    its length, grown by half or more when that falls short, and trimmed in
    place at the end: the rows are not copied as they grow, and the user
    codes are renumbered in place (`_sorted_users`).

    The file is scanned as bytes in line-aligned blocks of about
    `_BLOCK_BYTES`, with the same results as `csv.reader`: on text without
    quotes or carriage returns a line with three commas is a four-field row
    and any other line a malformed one. From the first block that holds a
    quote, a carriage return, a NUL, a non-ASCII byte or a line longer than
    ``csv.field_size_limit()`` on, `csv.reader` reads the rest of the file
    as UTF-8 text.

    On both paths, stamps spelled YYYY-MM-DDTHH:MM:SSZ or
    YYYY-MM-DDTHH:MM:SS±HH:MM are converted in one vectorised pass per block
    (`_canonical_epochs`), and the rest one at a time by `_parse_timestamp`.
    The byte scan finds each block's distinct user ids as uint64 words
    (`_user_codes`), so rows in time order cost about as much as rows
    grouped by user.

    Row templates: the byte scan takes a block's template from the first
    line of its most common length with three commas, and reads the lines
    of that layout as one (n, width) byte matrix whose fields are fixed
    column slices (`_template_rows`). A row of the template whose stamp
    `_canonical_epochs` does not read, or whose coordinate has a non-digit
    in a digit place or 16 or more digits, goes to `_parse_timestamp` and
    float(). Lines of another length or layout are copied out and each of
    their fields is found on its own (`_field_rows`); so are all lines of a
    block whose template takes fewer than half of them.

    Runs: rows that repeat the row before in a column range are read once
    a run (`_run_heads`), where the runs are fewer than half the rows; with
    as many runs or more every row is read. Of the template rows, the
    ``lat,lon`` bytes are parsed at the first row of each run of equal
    ``lat,lon`` bytes, and the date part of the stamp (``YYYY-MM-DD``) at
    the first row of each run of equal date bytes, the clock and offset on
    every row. Each block's kept points are located once a run of equal
    (lat, lon) floats, and its user ids once a run of equal ids. Identical
    bytes parse to identical values, so the runs change no result.

    Uniform width: when a block's length is a multiple of its first line's
    width w, every w-th byte is a newline and the block holds no other,
    its line ends are every w-th byte (`_line_ends`), without a search.
    """
    try:
        return _read_records_csv(path, grid)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInputError(f"records CSV {path} cannot be read: {exc}") from exc


def _check_header(header: Sequence[str]) -> None:
    if [h.strip() for h in header] != RECORDS_HEADER:
        raise InvalidInputError(f"records CSV must have header {','.join(RECORDS_HEADER)}")


def _read_records_csv(path, grid: GridSpec) -> tuple[Records, int]:
    index: dict[str, int] = {}
    raw: dict[bytes, int] = {}  # the byte scan's ids, undecoded, to their codes
    # user codes, t_us and the cell codes in `grid`, the first `n` entries
    # of each used; see `read_records_csv` for how they are sized
    columns = (np.empty(0, np.int32), np.empty(0, np.int64), np.empty(0, np.int32))
    n = 0

    def append(codes: np.ndarray, t_us: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> None:
        """Append rows to `columns`: their codes in `index` and their
        fields, each block's cells located in one call."""
        nonlocal n
        stop = n + len(codes)
        if stop > len(columns[0]):
            # the rows a byte read holds so far, times the file's bytes,
            # and one block's rows more
            read = max(fh.tell(), 1)
            estimate = stop * max(file_bytes, read) // read + len(codes)
            for column in columns:  # no view of a column outlives a statement
                column.resize(max(estimate, len(column) * 3 // 2), refcheck=False)
        for column, value in zip(columns, (codes, t_us, _cell_codes(lat, lon, grid))):
            column[n:stop] = value
        n = stop

    skipped = 0
    header_read = False
    with open(path, "rb") as fh:
        file_bytes = os.fstat(fh.fileno()).st_size
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
                    skipped += _read_csv_rows(text, header_read, index, append)
                break
            lo = 0
            if not header_read:
                _check_header(block[:ends[0]].decode("ascii").split(","))
                header_read, lo, ends = True, int(ends[0]) + 1, ends[1:]
            if len(ends):
                data = np.frombuffer(block, dtype=np.uint8)
                skipped += _scan_rows(data, lo, ends, index, raw, append)
    for column in columns:
        column.resize(n, refcheck=False)
    codes, t_us, cell = columns
    return Records(*_sorted_users(index, codes), t_us, cell, grid), skipped


def _line_ends(block: bytes) -> Optional[np.ndarray]:
    """Offsets of the newlines that end the lines of `block`, or None when
    `csv.reader` must read it: for a quote, a carriage return, a NUL, a
    non-ASCII byte or a line longer than the field size limit. A block of
    lines of one width, as the first line's, has its ends counted out."""
    if not block.isascii() or b'"' in block or b"\r" in block or b"\0" in block:
        return None
    data = np.frombuffer(block, dtype=np.uint8)
    limit = csv.field_size_limit()
    # lines of one width: their ends are every width-th byte when those are
    # newlines and no other byte is
    width = block.index(b"\n") + 1
    if (
        len(block) % width == 0 and (data[width - 1::width] == _NEWLINE).all()
        and np.count_nonzero(data == _NEWLINE) == len(block) // width
    ):
        return None if width > limit + 1 else np.arange(width - 1, len(block), width)
    ends = np.flatnonzero(data == _NEWLINE)
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
    data: np.ndarray, lo: int, ends: np.ndarray, index: dict[str, int],
    raw: dict[bytes, int], append,
) -> int:
    """Pass to ``append(codes, t_us, lat, lon)`` the rows of the plain ASCII
    lines ``data[lo:]``, which end at `ends`; returns the number of rows
    skipped. User codes come from and go into `index` and `raw` (see
    `_user_codes`).

    The lines of the block's row template are read from fixed columns
    (`_template_rows`). The other lines are copied out, in order, and each
    of their fields is found on its own (`_field_rows`); so are all lines
    of a block whose template takes fewer than half of them. The rows are
    kept in file order, and the block makes one `_user_codes` and one
    `append` call."""
    starts = np.concatenate(([lo], ends[:-1] + 1))
    length = ends + 1 - starts  # each line's bytes, its newline included
    template = _template_rows(data, lo, starts, length)
    if template is None:
        rows, *fields = _field_rows(data, lo, ends)
    else:
        rows, *fields = template
        if len(rows) < len(ends):
            rest = np.ones(len(ends), dtype=bool)
            rest[rows] = False
            lines = np.flatnonzero(rest)
            copy = data[lo:][np.repeat(rest, length)]
            more, *more_fields = _field_rows(copy, 0, np.cumsum(length[lines]) - 1)
            merged = []
            for a, b in zip(fields, more_fields):
                column = np.zeros(len(ends), dtype=a.dtype)  # ok is False on lines of no row
                column[rows], column[lines[more]] = a, b
                merged.append(column)
            rows, fields = np.arange(len(ends)), merged
    id_length, t_us, ok, lat, lon = fields
    keep = np.flatnonzero(ok & _in_range(lat, lon))
    if len(keep) < len(ends):
        starts = starts[rows[keep]]
        id_length, t_us, lat, lon = (column[keep] for column in (id_length, t_us, lat, lon))
    append(_user_codes(data, starts, starts + id_length, index, raw), t_us, lat, lon)
    return len(ends) - len(keep)


def _template_rows(data: np.ndarray, lo: int, starts: np.ndarray, length: np.ndarray) -> tuple:
    """(rows, id length, t_us, ok, lat, lon) of the lines that take the
    block's row template (see `read_records_csv`), `rows` their indexes
    among the block's lines; None when they are fewer than half the lines.

    A line takes the template when it has its width, commas at its comma
    offsets and nowhere else, and its dots and minus signs. Those lines are
    one (n, width) byte matrix, the block itself reshaped when every line
    has the width, and each field is a fixed column slice of it."""
    width = int(length[0])
    if (length == width).all():
        rows, lines = np.arange(len(length)), data[lo:].reshape(-1, width)
    else:
        values, counts = np.unique(length, return_counts=True)
        width = int(values[counts.argmax()])
        rows = np.flatnonzero(length == width)
        lines = _windows(data, starts[rows], width)
    commas = lines == _COMMA
    per_row = None  # each line's comma count, where it is needed
    first = 0
    if np.count_nonzero(commas[0]) != 3:
        per_row = np.count_nonzero(commas, axis=1)
        first = int(np.argmax(per_row == 3))
        if per_row[first] != 3:
            return None
    template = lines[first]
    c1, c2, c3 = np.flatnonzero(template == _COMMA).tolist()
    match = commas[:, c1] & commas[:, c2] & commas[:, c3]
    # the lines with commas at the template's offsets have no other comma
    # when the block holds no more commas than theirs
    if np.count_nonzero(commas) != 3 * np.count_nonzero(match):
        if per_row is None:
            per_row = np.count_nonzero(commas, axis=1)
        match &= per_row == 3
    del commas
    coordinates = []
    for a, b in ((c2 + 1, c3), (c3 + 1, width - 1)):
        field = template[a:b]
        dot = int(np.argmax(field == _DOT)) if _DOT in field else -1
        neg = b > a and field[0] == _MINUS
        if dot >= 0:
            match &= lines[:, a + dot] == _DOT
        if b > a:
            match &= (lines[:, a] == _MINUS) == neg
        coordinates.append((a, b, dot, neg))
    if 2 * np.count_nonzero(match) < len(length):
        return None
    if not match.all():
        rows, lines = rows[match], lines[match]
    stamps = lines[:, c1 + 1:c2]
    if stamps.shape[1] in _STAMP_FORMS:
        t_us, ok = _canonical_epochs(stamps)
        t_us *= 1_000_000
    else:
        t_us, ok = np.zeros(len(rows), dtype=np.int64), np.zeros(len(rows), dtype=bool)
    _parse_stamps_left(t_us, ok, lambda i: stamps[i].tobytes().decode("ascii"))
    # the `lat,lon` bytes of a run of rows equal to the row before are read
    # at its first row
    found = _run_heads(_row_words(lines[:, c2 + 1:width - 1]))
    fields = lines if found is None else lines[found[0]]
    lat, lon = (_parse_coordinates(fields[:, a:b], dot, neg) for a, b, dot, neg in coordinates)
    if found is not None:
        lat, lon = np.repeat(lat, found[1]), np.repeat(lon, found[1])
    return rows, np.full(len(rows), c1), t_us, ok, lat, lon


def _field_rows(data: np.ndarray, lo: int, ends: np.ndarray) -> tuple:
    """(rows, id length, t_us, ok, lat, lon) of the lines ``data[lo:]``,
    which end at `ends`, with three commas, `rows` their indexes among the
    lines. Each field of each line is found on its own."""
    starts = np.concatenate(([lo], ends[:-1] + 1))
    commas = np.flatnonzero(data[lo:] == _COMMA) + lo
    before = np.searchsorted(commas, ends)  # commas before each line end
    rows = np.flatnonzero(np.diff(before, prepend=0) == 3)
    c1, c2, c3 = (commas[before[rows] - j] for j in (3, 2, 1))

    t_us, ok = _parse_timestamps(
        c2 - c1 - 1, lambda rows, width: _windows(data, c1[rows] + 1, width),
        lambda i: data[c1[i] + 1:c2[i]].tobytes().decode("ascii"),
    )
    dots = np.append(np.flatnonzero(data == _DOT), len(data))
    lat = _parse_fields(data, dots, c2 + 1, c3)
    lon = _parse_fields(data, dots, c3 + 1, ends[rows])
    return rows, c1 - starts[rows], t_us, ok, lat, lon


def _parse_fields(
    data: np.ndarray, dots: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> np.ndarray:
    """float() of each field ``data[start:stop]``; NaN where float() raises.

    The fields are grouped by layout: length, offset of the first dot and a
    leading minus. Each layout of 1 to 15 digits is gathered as one byte
    matrix for `_parse_coordinates`; every other field goes through
    float()."""
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
    for k, at in zip(key[firsts].tolist(), np.split(order, firsts[1:])):
        if k >= 0:
            width, d = k >> 6, ((k >> 1) & 31) - 1
            out[at] = _parse_coordinates(_windows(data, start[at], width), d, bool(k & 1))
            continue
        for i in at.tolist():
            out[i] = _float_or_nan(data[start[i]:stop[i]].tobytes().decode("ascii"))
    return out


def _parse_coordinates(fields: np.ndarray, dot: int, neg: bool) -> np.ndarray:
    """float() of each row of `fields`, an (n, width) array of the bytes of
    coordinate fields of one layout: a dot at column `dot` (-1: none) and,
    if `neg`, a minus at column 0. NaN where float() raises.

    When the layout has 1 to 15 digits they make an integer significand
    below 2**53 and the dot a power of ten 10**k that float64 holds
    exactly, so one IEEE division gives the correctly rounded value, as
    float() does (Clinger's fast path). A field with a non-digit in a digit
    place, and every field of a layout of no digits or more than 15, goes
    through float().

    The significands are accumulated as one int64 column, a digit place
    at a time, and converted once: an integer below 2**53 is exact in
    float64. A row with a non-digit, whose places may hold up to 255,
    stays far below 2**63 and is read by float() anyway.
    """
    width = fields.shape[1]
    places = [j for j in range(int(neg), width) if j != dot]
    out = np.empty(len(fields))
    parsed = np.zeros(len(fields), dtype=bool)
    if 1 <= len(places) <= 15:
        # one row per digit place; non-digits wrap above 9
        digits = fields.T[places] - np.uint8(_ZERO)
        significand = digits[0].astype(np.int64)
        for row in digits[1:]:
            significand *= 10
            significand += row
        decimals = width - 1 - dot if dot >= 0 else 0
        np.divide(significand, float(10**decimals), out=out)
        if neg:
            np.negative(out, out=out)
        parsed = digits.max(axis=0) <= 9
    for i in np.flatnonzero(~parsed).tolist():
        out[i] = _float_or_nan(fields[i].tobytes().decode("ascii"))
    return out


# _KEEP[k] keeps the first k bytes of a big-endian uint64 word
_KEEP = np.array([((1 << 8 * k) - 1) << (64 - 8 * k) for k in range(9)], dtype=np.uint64)


def _changes(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the entries that differ from the one before them in any of
    the equally long `columns`; the first entry always does."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return new


def _user_codes(
    data: np.ndarray, start: np.ndarray, stop: np.ndarray, index: dict[str, int],
    raw: dict[bytes, int],
) -> np.ndarray:
    """Codes in `index` of the user ids ``data[start:stop]``; new ids are
    added to it. `raw` maps the ids' bytes to the same codes, so each id is
    decoded once per read, the first time a block holds it.

    Each id is read as ⌈w/8⌉ big-endian uint64 words of its bytes, NUL-padded
    to w, the length of the longest id; ids hold no NUL, so two ids are equal
    when their words are. The distinct ids are found by sorting the words,
    and only they are decoded. Where ids come in runs (a file grouped by
    user), only the first id of each run is sorted: when the runs are fewer
    than half the rows."""
    length = stop - start
    n_words = max(1, -(-int(length.max(initial=0)) // 8))
    if int(start.max(initial=0)) + 8 * n_words > len(data):
        data = np.concatenate((data, np.zeros(8 * n_words, dtype=np.uint8)))
    # the big-endian word at each byte offset of data
    at = np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))
    words = []
    for j in range(n_words):
        word = at[start + 8 * j].astype(np.uint64)
        word &= _KEEP[np.clip(length - 8 * j, 0, 8)]
        words.append(word)
    found = _run_heads(words)
    if found is not None:
        heads, runs = found
        words = [word[heads] for word in words]
    order = np.argsort(words[0]) if n_words == 1 else np.lexsort(words)
    words = [word[order] for word in words]
    new = _changes(words)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    distinct = np.column_stack([word[new] for word in words]).astype(">u8")
    names = distinct.view(f"S{8 * n_words}")[:, 0].tolist()  # NULs stripped
    codes = np.array([raw.get(name, -1) for name in names], dtype=np.int32)
    for i in np.flatnonzero(codes < 0).tolist():
        name = names[i]
        codes[i] = raw[name] = index.setdefault(name.decode("ascii"), len(index))
    codes = codes[inverse]
    return codes if found is None else np.repeat(codes, runs)


def _read_csv_rows(text, header_read: bool, index: dict[str, int], append) -> int:
    """Pass to ``append(codes, t_us, lat, lon)`` the rows `csv.reader` reads
    from `text`, after the header unless `header_read`; returns the number of
    rows skipped. User codes come from and go into `index`."""
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
            length = np.fromiter(map(len, stamps), dtype=np.int64, count=len(stamps))
            chars = np.array(stamps, dtype="U25").view(np.uint32).reshape(-1, 25)
            t_us, ok = _parse_timestamps(
                length, lambda rows, width: chars[rows, :width], stamps.__getitem__
            )
            lat, lon = _parse_floats(lat_texts), _parse_floats(lon_texts)
            ok &= _in_range(lat, lon)
            skipped += len(rows) - int(np.count_nonzero(ok))
            uids = list(compress(uids, ok))
            for uid in dict.fromkeys(uids):
                index.setdefault(uid, len(index))
            codes = np.fromiter(map(index.__getitem__, uids), dtype=np.int32, count=len(uids))
            append(codes, t_us[ok], lat[ok], lon[ok])
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

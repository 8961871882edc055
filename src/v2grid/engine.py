"""Per-vehicle battery simulation.

Each user-day is simulated midnight-to-midnight in the configured local
clock, starting from a fixed state of charge. During a stay the vehicle
follows one of three rules, re-evaluated at the solar-window boundaries:

* inside the solar window: charge at full power until the PV charge target
  (default: full battery), then idle;
* outside the window with SOC above the threshold: discharge at full power
  down to the threshold, then idle;
* otherwise: charge at full power up to the threshold, then idle.

A vehicle already at or past its target idles for the whole segment.

Between consecutive stays of the same day the SOC drops instantaneously at
arrival by (centroid distance) / (vehicle range), clamped at zero. The
simulation is event-based: regime changes are computed in closed form, so
traces are exact piecewise-linear curves rather than fixed-step samples.

One engine, `_simulate_stays`, applies these rules to many user-days at
once, stay rank by stay rank, as array operations. `simulate_user_days`
returns only its charge events, as `EventColumns`; ``v2grid run`` uses it.
`simulate_day` (one user-day) and `run_scenario` (every user-day of a set
of trajectories) also build each user-day's `SocTrace` from its results.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, InvariantViolationError
from .geo import CellId, GridSpec, cell_distances_m
from .ingest import (
    DAY_S,
    LINES_PER_SLICE,
    EpochText,
    StayColumns,
    Trajectory,
    csv_fields,
    format_epoch,
    local_day_span,
    write_lines,
)

_CHUNK_USER_DAYS = 1024  # user-days simulated at once; bounds the columns held


@dataclass(frozen=True)
class VehicleParams:
    """Battery and charger ratings plus the behavioural set points."""

    capacity_kwh: float = 25.0
    range_km: float = 135.0
    charge_power_kw: float = 6.6
    discharge_power_kw: float = 6.6
    soc_threshold: float = 0.5
    soc_initial: float = 0.5
    pv_charge_target: float = 1.0

    def __post_init__(self) -> None:
        for name in ("capacity_kwh", "range_km", "charge_power_kw", "discharge_power_kw"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidInputError(f"{name} must be finite and positive")
        for name in ("soc_threshold", "soc_initial", "pv_charge_target"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidInputError(f"{name} must lie in [0, 1]")


def clock_time(text: str) -> tuple[int, int, int]:
    """(hour, minute, second) of an ``HH:MM[:SS]`` clock time, two ASCII
    digits per field, from 00:00 to 24:00 inclusive."""
    m = re.fullmatch(r"(\d\d):(\d\d)(?::(\d\d))?", text, re.ASCII)
    if m is None:
        raise InvalidInputError(f"clock time {text!r} is not HH:MM[:SS]")
    hour, minute, second = (int(g or 0) for g in m.groups())
    if minute > 59 or second > 59 or hour * 3600 + minute * 60 + second > DAY_S:
        raise InvalidInputError(f"clock time {text!r} is not in 00:00-24:00")
    return hour, minute, second


@dataclass(frozen=True)
class PvWindow:
    """Daily interval [start_hour, end_hour) of sufficient solar irradiance."""

    start_hour: float = 9.0
    end_hour: float = 17.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.start_hour < self.end_hour <= 24.0):
            raise InvalidInputError("window must satisfy 0 <= start < end <= 24")

    @classmethod
    def from_times(cls, start: str, end: str) -> "PvWindow":
        """Window from ``HH:MM[:SS]`` clock times; ``24:00`` is a legal end."""

        def to_hours(text: str) -> float:
            hour, minute, second = clock_time(text)
            return hour + minute / 60.0 + second / 3600.0

        return cls(to_hours(start), to_hours(end))

    def contains(self, hour: float) -> bool:
        return self.start_hour <= hour < self.end_hour


class Regime(str, Enum):
    PV_CHARGE = "PV_CHARGE"
    NONPV_CHARGE = "NONPV_CHARGE"
    DISCHARGE = "DISCHARGE"


CHARGING_REGIMES = (Regime.PV_CHARGE, Regime.NONPV_CHARGE)


@dataclass(frozen=True, slots=True)
class ChargeEvent:
    """One constant-power energy transfer inside a stay.

    power_kw is always positive: grid-to-vehicle for the charging regimes,
    vehicle-to-grid for DISCHARGE. Hours count from local midnight of `day`,
    a local epoch-day index.
    """

    user_id: str
    day: int
    cell: CellId
    regime: Regime
    start_hour: float
    end_hour: float
    power_kw: float
    energy_kwh: float

    @property
    def duration_h(self) -> float:
        return self.end_hour - self.start_hour


# the regime of each code in EventColumns.regime
REGIMES = (Regime.DISCHARGE, Regime.PV_CHARGE, Regime.NONPV_CHARGE)
_DISCHARGE, _PV_CHARGE, _NONPV_CHARGE = range(3)


@dataclass(frozen=True, eq=False)
class EventColumns:
    """Charge events as columns, one array entry per event.

    Event i is a `ChargeEvent` of user ``user_ids[user[i]]`` on local
    epoch-day ``day[i]`` in cell ``(row[i], col[i])``, with regime
    ``REGIMES[regime[i]]``; iterating yields those `ChargeEvent`s in order.
    """

    user_ids: tuple[str, ...]
    user: np.ndarray  # int64 index into user_ids
    day: np.ndarray  # int64
    row: np.ndarray  # int64
    col: np.ndarray  # int64
    regime: np.ndarray  # int8 index into REGIMES
    start_hour: np.ndarray  # float64
    end_hour: np.ndarray  # float64
    power_kw: np.ndarray  # float64
    energy_kwh: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.day)

    def __iter__(self) -> Iterator[ChargeEvent]:
        names = self.user_ids
        columns = (getattr(self, f.name).tolist() for f in fields(self)[1:])
        for user, day, row, col, regime, start, end, power, energy in zip(*columns):
            yield ChargeEvent(
                names[user], day, CellId(row, col), REGIMES[regime], start, end, power, energy
            )

    @classmethod
    def from_events(cls, events: Iterable[ChargeEvent]) -> "EventColumns":
        """The columns of `events`, in the order given."""
        names: dict[str, int] = {}
        rows = [
            (names.setdefault(e.user_id, len(names)), e.day, e.cell.row, e.cell.col,
             REGIMES.index(e.regime), e.start_hour, e.end_hour, e.power_kw, e.energy_kwh)
            for e in events
        ]
        columns = list(zip(*rows)) or [()] * 9
        ints = [np.array(c, dtype=np.int64) for c in columns[:4]]
        return cls(
            tuple(names), *ints, np.array(columns[4], dtype=np.int8),
            *(np.array(c, dtype=np.float64) for c in columns[5:]),
        )

    @classmethod
    def concat(cls, parts: Sequence["EventColumns"]) -> "EventColumns":
        """The events of `parts`, one after the other."""
        parts = [cls.from_events(()), *parts]  # so that no parts give no events
        offsets = np.cumsum([0] + [len(p.user_ids) for p in parts[:-1]])
        return cls(
            tuple(name for p in parts for name in p.user_ids),
            np.concatenate([p.user + off for p, off in zip(parts, offsets.tolist())]),
            *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)[2:]),
        )


class DepletionJump(NamedTuple):
    hour: float
    soc_drop: float  # applied (possibly clamped) drop
    from_cell: CellId
    to_cell: CellId
    clamped: bool


class DayStay(NamedTuple):
    """A stay clipped to one local day, in hours since local midnight."""

    cell: CellId
    start_hour: float
    end_hour: float


@dataclass
class SocTrace:
    """Piecewise-linear state of charge of one user over one local epoch-day."""

    user_id: str
    day: int
    breakpoints: list[tuple[float, float]]
    events: list[ChargeEvent]
    depletion_jumps: list[DepletionJump]
    soc_initial: float
    soc_final: float
    range_exceeded: int = 0

    def energy_kwh(self, regime: Regime) -> float:
        return sum(e.energy_kwh for e in self.events if e.regime is regime)

    @property
    def discharge_kwh(self) -> float:
        return self.energy_kwh(Regime.DISCHARGE)

    @property
    def charge_kwh(self) -> float:
        return self.energy_kwh(Regime.PV_CHARGE) + self.energy_kwh(Regime.NONPV_CHARGE)


def drive_depletion_kwh(distance_km: float, params: VehicleParams) -> float:
    """Battery energy spent driving a distance: capacity / range * distance."""
    if not math.isfinite(distance_km) or distance_km < 0:
        raise InvalidInputError("distance must be finite and non-negative")
    return params.capacity_kwh / params.range_km * distance_km


def simulate_day(
    user_id: str,
    day: int,
    stays: Sequence[DayStay],
    params: VehicleParams,
    window: PvWindow,
    grid: GridSpec,
) -> SocTrace:
    """Simulate one user-day; see the module docstring for the rule set."""
    prev_end = 0.0
    for st in stays:
        if not (0.0 <= st.start_hour < st.end_hour <= 24.0):
            raise InvalidInputError(f"stay {st} outside the day bounds")
        if st.start_hour < prev_end:
            raise InvalidInputError("stays must be ordered and non-overlapping")
        prev_end = st.end_hour

    cells = [st.cell for st in stays]
    row, col = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    hours = [(st.start_hour, st.end_hour) for st in stays]
    start, end = np.array(hours, dtype=np.float64).reshape(-1, 2).T
    trace = np.zeros(len(stays), dtype=np.int64)
    run = _simulate_stays(trace, row, col, start, end, 1, params, window, grid)
    return _soc_traces([user_id], [day], trace, cells, start, params, *run)[0]


def day_range_of(stays: StayColumns, utc_offset_s: int) -> list[int]:
    """All local epoch-days between the first and last observed stay,
    inclusive."""
    if len(stays.arrival) == 0:
        return []
    # neither day of local_day_span decreases as a stay's times grow
    first = int(stays.arrival.min())
    lo, _ = local_day_span(first, first, utc_offset_s)
    _, hi = local_day_span(
        int(stays.arrival.max()), int(stays.departure.max()), utc_offset_s
    )
    return list(range(lo, hi + 1))


def run_scenario(
    trajectories: Mapping[str, Trajectory],
    params: VehicleParams,
    window: PvWindow,
    grid: GridSpec,
    utc_offset_s: int = 8 * 3600,
    days: Optional[Sequence[int]] = None,
) -> Iterator[SocTrace]:
    """One SocTrace per user per day, streamed in (user, day) order.

    `trajectories` maps each user id to its `Trajectory`. `days` must be
    ascending local epoch-days (else `InvalidInputError`), by default every
    day from the first stay to the last. The SOC resets to its initial value
    at every local midnight, so each user-day is independent.
    """
    stays = StayColumns.from_trajectories(trajectories.values())
    if days is None:
        days = day_range_of(stays, utc_offset_s)
    n_days = len(days)
    n_user_days = len(stays.user_ids) * n_days
    for lo in range(0, n_user_days, _CHUNK_USER_DAYS):
        hi = min(lo + _CHUNK_USER_DAYS, n_user_days)
        *_, row, col, start, end, trace = _user_day_stays(stays, days, lo, hi, utc_offset_s)
        run = _simulate_stays(trace, row, col, start, end, hi - lo, params, window, grid)
        user_ids = [stays.user_ids[g // n_days] for g in range(lo, hi)]
        on = [days[g % n_days] for g in range(lo, hi)]
        cells = list(map(CellId, row.tolist(), col.tolist()))
        yield from _soc_traces(user_ids, on, trace, cells, start, params, *run)


def _day_stays(
    user, row, col, arrival, departure, utc_offset_s: int
) -> tuple[np.ndarray, ...]:
    """(user, day, row, col, start_s, end_s) of the given stay columns clipped
    to local days, a stay across midnight split there: start_s and end_s are
    int seconds past the day's midnight. Rows come in (stay, day) order."""
    d0, d1 = local_day_span(arrival, departure, utc_offset_s)
    n = d1 - d0 + 1
    part = np.repeat(np.arange(len(arrival)), n)
    day = d0[part] + np.arange(len(part)) - np.repeat(np.cumsum(n) - n, n)
    midnight = day * DAY_S - utc_offset_s
    start = np.maximum(arrival[part] - midnight, 0)
    end = np.minimum(departure[part] - midnight, DAY_S)
    kept = end > start
    part = part[kept]
    return user[part], day[kept], row[part], col[part], start[kept], end[kept]


def _window_cuts(start: np.ndarray, end: np.ndarray, window: PvWindow):
    """(seg_start, seg_end, valid, inside) of the up to three parts of each
    stay that the window bounds inside it cut, as (stays, 3) arrays."""
    ws, we = window.start_hour, window.end_hour
    cut1 = (start < ws) & (ws < end)
    cut2 = (start < we) & (we < end)
    end0 = np.where(cut1, ws, np.where(cut2, we, end))
    seg_start = np.stack([start, end0, np.full_like(start, we)], axis=1)
    seg_end = np.stack([end0, np.where(cut1 & cut2, we, end), end], axis=1)
    valid = np.stack([np.ones_like(cut1), cut1 | cut2, cut1 & cut2], axis=1)
    inside = (ws <= seg_start) & (seg_start < we)
    return seg_start, seg_end, valid, inside


def _user_day_stays(
    stays: StayColumns, days: Sequence[int], lo: int, hi: int, utc_offset_s: int
) -> tuple:
    """The stays of user-days ``lo`` to ``hi - 1`` of the users of `stays` x
    `days` (ascending epoch-days), numbered in (user, day) order, clipped to
    those days: (names, user, day, row, col, start, end, trace) with `names`
    the ids of the users spanned, `user` an index into them, `start` and
    `end` in hours since the day's midnight and `trace` the user-day less
    ``lo``, in (trace, stay) order."""
    n_days = len(days)
    days = np.asarray(days, dtype=np.int64)
    if not 0 <= lo < hi <= len(stays.user_ids) * n_days:
        raise InvalidInputError(f"user-days {lo} to {hi - 1} are not in the scenario")
    if np.any(days[1:] <= days[:-1]):
        raise InvalidInputError("days must be ascending")
    first, stop = lo // n_days, -(-hi // n_days)
    a, b = stays.user_range(first, stop)
    user, day, row, col, start_s, end_s = _day_stays(
        stays.user[a:b] - first, stays.row[a:b], stays.col[a:b], stays.arrival[a:b],
        stays.departure[a:b], utc_offset_s,
    )
    at = np.minimum(np.searchsorted(days, day), n_days - 1)
    trace = (user + first) * n_days + at - lo
    kept = (days[at] == day) & (trace >= 0) & (trace < hi - lo)
    user, day, row, col, start_s, end_s, trace = (
        c[kept] for c in (user, day, row, col, start_s, end_s, trace)
    )
    if np.any(trace[1:] < trace[:-1]):  # stays out of time order
        order = np.argsort(trace, kind="stable")
        user, day, row, col, start_s, end_s, trace = (
            c[order] for c in (user, day, row, col, start_s, end_s, trace)
        )
    start, end = start_s / 3600.0, end_s / 3600.0
    if np.any((trace[1:] == trace[:-1]) & (start[1:] < end[:-1])):
        raise InvalidInputError("stays must be ordered and non-overlapping")
    return stays.user_ids[first:stop], user, day, row, col, start, end, trace


def simulate_user_days(
    stays: StayColumns,
    days: Sequence[int],
    lo: int,
    hi: int,
    params: VehicleParams,
    window: PvWindow,
    grid: GridSpec,
    utc_offset_s: int = 8 * 3600,
) -> tuple[EventColumns, int]:
    """Charge events and clamped trips of user-days ``lo`` to ``hi - 1`` of
    the users of `stays` x `days` (ascending epoch-days), numbered in (user,
    day) order.

    The events are those of `run_scenario`'s traces of the same user-days,
    in (user, day, stay, segment) order; events carry the user ids of
    `stays`. A SOC that ends a user-day outside [-1e-12, 1 + 1e-12] raises
    `InvariantViolationError` for the first such user-day.
    """
    names, user, day, row, col, start, end, trace = _user_day_stays(
        stays, days, lo, hi, utc_offset_s
    )
    soc, (_trip, clamped, *_), events = _simulate_stays(
        trace, row, col, start, end, hi - lo, params, window, grid
    )
    n_days = len(days)
    _check_soc(soc, lambda g: (stays.user_ids[(lo + g) // n_days], days[(lo + g) % n_days]))
    stay, regime, seg_start, t1, rate, energy, _ = events
    return EventColumns(
        names, user[stay], day[stay], row[stay], col[stay],
        regime, seg_start, t1, rate, energy,
    ), int(np.count_nonzero(clamped))


def _check_soc(soc: np.ndarray, user_day) -> None:
    """Raise `InvariantViolationError` for the first user-day g, ``user_day(g)
    = (user id, day)``, whose final SOC ``soc[g]`` is outside [-1e-12, 1 + 1e-12]."""
    bad = np.flatnonzero(~((-1e-12 <= soc) & (soc <= 1.0 + 1e-12)))
    if len(bad):
        user_id, day = user_day(int(bad[0]))
        raise InvariantViolationError(
            f"SOC {float(soc[bad[0]])} escaped [0, 1] for user {user_id} on "
            f"{format_epoch(int(day))}"
        )


def _simulate_stays(trace, row, col, start, end, n_traces, params, window, grid):
    """The module docstring's rules over the day-stays of `n_traces`
    user-days, given in (trace, stay) order. Stays of one rank within their
    user-day are independent of each other, so each rank and window segment
    is one set of array operations.

    Returns the final SOC of each user-day; per stay, (trip, clamped, drop,
    soc): whether a trip ends at it, whether the trip's drop was clamped to
    the SOC before it, the drop applied and the SOC after it; and the events as
    (stay index, regime code, start, end, power, energy, SOC after) columns
    in (stay, segment) order."""
    n = len(trace)
    new_trace = np.ones(n, dtype=bool)
    new_trace[1:] = trace[1:] != trace[:-1]
    heads = np.flatnonzero(new_trace)
    rank = np.arange(n) - np.repeat(heads, np.diff(np.append(heads, n)))
    drop = np.zeros(n)
    moved = np.flatnonzero(~new_trace)
    moved = moved[(row[moved] != row[moved - 1]) | (col[moved] != col[moved - 1])]
    drop[moved] = cell_distances_m(
        row[moved - 1], col[moved - 1], row[moved], col[moved], grid
    ) / 1000.0 / params.range_km
    trip = drop > 0.0

    # rank-major order: the stays of rank r are the slice bounds[r]:bounds[r + 1]
    order = np.argsort(rank, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rank))))
    by_rank = trace[order], drop[order], trip[order]
    seg_start, seg_end, valid, inside = _window_cuts(start[order], end[order], window)
    regime = np.where(inside, _PV_CHARGE, _NONPV_CHARGE).astype(np.int8)
    t1, rate, energy, soc_after = (np.zeros((n, 3)) for _ in range(4))
    emitted = np.zeros((n, 3), dtype=bool)
    clamped = np.zeros(n, dtype=bool)
    soc_drop, soc_after_trip = np.zeros(n), np.zeros(n)

    cap, thr = params.capacity_kwh, params.soc_threshold
    soc = np.full(n_traces, params.soc_initial)
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        t, d, hit = (c[a:b] for c in by_rank)
        s = soc[t]
        over = hit & (d > s)
        soc_drop[a:b] = applied = np.where(over, s, d)
        s = np.where(over, 0.0, s - applied)
        clamped[a:b], soc_after_trip[a:b] = over, s
        for k in range(3):
            if not valid[a:b, k].any():  # emits nothing, so leaves s as it is
                continue
            ins, seg_s, seg_e = inside[a:b, k], seg_start[a:b, k], seg_end[a:b, k]
            down = ~ins & (s > thr)
            target = np.where(ins, params.pv_charge_target, thr)
            r = np.where(down, params.discharge_power_kw, params.charge_power_kw)
            gap_kwh = np.where(down, s - target, target - s) * cap
            need_h = gap_kwh / r
            span = seg_e - seg_s
            fits = need_h <= span
            e = np.where(fits, gap_kwh, r * span)
            end_h = np.where(fits, seg_s + need_h, seg_e)
            delta = e / cap
            up_soc, down_soc = s + delta, s - delta
            new_soc = np.where(fits, target, np.where(
                down,
                np.where(target > down_soc, target, down_soc),  # max(soc - delta, target)
                np.where(target < up_soc, target, up_soc),  # min(soc + delta, target)
            ))
            # gap * cap < 1e-12: at or past the target, or rounding dust
            emit = valid[a:b, k] & ~(gap_kwh < 1e-12) & (end_h > seg_s) & (e > 0.0)
            s = np.where(emit, new_soc, s)
            emitted[a:b, k], soc_after[a:b, k] = emit, s
            regime[a:b, k][down] = _DISCHARGE
            t1[a:b, k], rate[a:b, k], energy[a:b, k] = end_h, r, e
        soc[t] = s

    # back to (trace, stay) order, then the emitted (stay, segment) entries
    back = np.empty(n, dtype=np.intp)
    back[order] = np.arange(n)
    emitted = emitted[back]
    stay, _segment = np.nonzero(emitted)
    columns = (regime, seg_start, t1, rate, energy, soc_after)
    return (
        soc,
        (trip, clamped[back], soc_drop[back], soc_after_trip[back]),
        (stay, *(c[back][emitted] for c in columns)),
    )


def _soc_traces(user_ids, days, trace, cells, start, params, soc, trips, events):
    """The checked `SocTrace` of each user-day g, user ``user_ids[g]`` on
    ``days[g]``, of a `_simulate_stays` run on stays `trace`, `cells`, `start`.

    A user-day's SOC changes at each trip and event, in stay order, a trip
    first. Each change marks a breakpoint at its start with the SOC before it
    and one at its end with the SOC after it, between (0, initial SOC) and
    (24, final SOC); a breakpoint equal to the one before it is left out."""
    _check_soc(soc, lambda g: (user_ids[g], days[g]))
    trip, clamped, soc_drop, soc_after_trip = trips
    stay, regime, seg_start, seg_end, power, energy, soc_after_event = events
    n = len(soc)
    at = np.flatnonzero(trip)
    changes = np.concatenate([at, stay])
    order = np.argsort(changes, kind="stable")
    g = trace[changes[order]]
    soc_to = np.concatenate([soc_after_trip[at], soc_after_event])[order]
    soc_from = np.roll(soc_to, 1)
    soc_from[np.diff(g, prepend=-1) != 0] = params.soc_initial  # first of its user-day
    marks = np.column_stack([
        np.concatenate([start[at], seg_start])[order], soc_from,
        np.concatenate([start[at], seg_end])[order], soc_to,
    ]).reshape(-1, 2)
    marks = np.concatenate([np.tile([0.0, params.soc_initial], (n, 1)), marks,
                            np.column_stack([np.full(n, 24.0), soc])])
    owner = np.concatenate([np.arange(n), np.repeat(g, 2), np.arange(n)])
    by_owner = np.argsort(owner, kind="stable")
    marks, owner = marks[by_owner], owner[by_owner]
    # a user-day's first mark (hour 0) never equals the last one before it (hour 24)
    kept = np.concatenate([[True], np.any(marks[1:] != marks[:-1], axis=1)])

    breakpoints = list(zip(*marks[kept].T.tolist()))
    charge_events = [
        ChargeEvent(user_ids[u], days[u], cells[i], REGIMES[r], a, b, p, e)
        for u, i, r, a, b, p, e in zip(
            trace[stay].tolist(), stay.tolist(), regime.tolist(), seg_start.tolist(),
            seg_end.tolist(), power.tolist(), energy.tolist(),
        )
    ]
    jumps = [
        DepletionJump(h, d, cells[i - 1], cells[i], c)
        for i, h, d, c in zip(
            at.tolist(), start[at].tolist(), soc_drop[at].tolist(), clamped[at].tolist()
        )
    ]

    def split(items: list, of_trace: np.ndarray) -> list[list]:
        ends = np.cumsum(np.bincount(of_trace, minlength=n)).tolist()
        return [items[a:b] for a, b in zip([0, *ends], ends)]

    return [
        SocTrace(user_id, day, b, e, j, params.soc_initial, s, x)
        for user_id, day, b, e, j, s, x in zip(
            user_ids, days, split(breakpoints, owner[kept]),
            split(charge_events, trace[stay]), split(jumps, trace[at]), soc.tolist(),
            np.bincount(trace[at[clamped[at]]], minlength=n).tolist(),
        )
    ]


# ---------------------------------------------------------------------------
# Event dump
# ---------------------------------------------------------------------------

EVENTS_HEADER = [
    "user_id", "day", "cell_row", "cell_col", "regime",
    "start", "end", "power_kw", "energy_kwh",
]


def write_events_csv(events: EventColumns, path) -> None:
    """Local-clock event dump; timestamps rounded to whole seconds, as
    ``format_epoch(day, round(hour * 3600.0))``: an instant of 24:00 is the
    next day's 00:00:00."""
    names = csv_fields(events.user_ids)
    regimes = [r.value for r in REGIMES]
    text = EpochText()

    def lines(a: int, b: int) -> list[str]:
        day = events.day[a:b]
        (s_day, s_clock), (e_day, e_clock) = (
            text.instants(day, np.rint(hours[a:b] * 3600.0).astype(np.int64))
            for hours in (events.start_hour, events.end_hour)
        )
        return [
            f"{names[u]},{d},{r},{c},{regimes[g]},{sd}{sc},{ed}{ec},{power},{energy!r}\n"
            for u, d, r, c, g, sd, sc, ed, ec, power, energy in zip(
                events.user[a:b].tolist(), text.days(day.tolist()),
                events.row[a:b].tolist(), events.col[a:b].tolist(),
                events.regime[a:b].tolist(), s_day, s_clock, e_day, e_clock,
                _reprs(events.power_kw[a:b]), events.energy_kwh[a:b].tolist(),
            )
        ]

    write_lines(path, EVENTS_HEADER, (
        lines(a, a + LINES_PER_SLICE) for a in range(0, len(events), LINES_PER_SLICE)
    ))


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each float of `values`, formatted once per distinct bit
    pattern: a column of few values, such as the charger ratings."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = [repr(v) for v in bits.view(np.float64).tolist()]
    return list(map(texts.__getitem__, inverse.tolist()))

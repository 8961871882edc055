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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import InvalidInputError, InvariantViolationError
from .geo import CellId, GridSpec, cell_distance_m
from .ingest import DAY_S, Trajectory, format_epoch, local_day_span, write_csv


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


def _window_segments(
    start: float, end: float, window: PvWindow
) -> list[tuple[float, float, bool]]:
    cuts = [start]
    for b in (window.start_hour, window.end_hour):
        if start < b < end:
            cuts.append(b)
    cuts.append(end)
    return [(a, b, window.contains(a)) for a, b in zip(cuts, cuts[1:]) if b > a]


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
            drop = cell_distance_m(prev_cell, st.cell, grid) / 1000.0 / params.range_km
            if drop > 0.0:
                mark(st.start_hour, soc)
                clamped = drop > soc
                applied = soc if clamped else drop
                if clamped:
                    range_exceeded += 1
                soc = 0.0 if clamped else soc - applied
                jumps.append(DepletionJump(st.start_hour, applied, prev_cell, st.cell, clamped))
                mark(st.start_hour, soc)

        for seg_s, seg_e, inside in _window_segments(st.start_hour, st.end_hour, window):
            if inside:
                target, rate, regime = (
                    params.pv_charge_target, params.charge_power_kw, Regime.PV_CHARGE
                )
            elif soc > params.soc_threshold:
                target, rate, regime = (
                    params.soc_threshold, params.discharge_power_kw, Regime.DISCHARGE
                )
            else:
                target, rate, regime = (
                    params.soc_threshold, params.charge_power_kw, Regime.NONPV_CHARGE
                )
            up = regime is not Regime.DISCHARGE
            gap = (target - soc) if up else (soc - target)
            if gap * cap < 1e-12:  # at or past the target, or rounding dust
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


def day_range_of(trajectories: Iterable[Trajectory], utc_offset_s: int) -> list[int]:
    """All local epoch-days between the first and last observed stay,
    inclusive."""
    spans = [
        local_day_span(stay.arrival, stay.departure, utc_offset_s)
        for traj in trajectories
        for stay in traj.stays
    ]
    if not spans:
        return []
    lo = min(d0 for d0, _ in spans)
    hi = max(d1 for _, d1 in spans)
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

    The SOC resets to its initial value at every local midnight, so each
    user-day is independent and the iteration order never affects results.
    """
    if days is None:
        days = day_range_of(trajectories.values(), utc_offset_s)
    for uid in sorted(trajectories):
        by_day = slice_trajectory_days(trajectories[uid], utc_offset_s)
        for day in days:
            yield simulate_day(uid, day, by_day.get(day, ()), params, window, grid)


# ---------------------------------------------------------------------------
# Event dump
# ---------------------------------------------------------------------------

EVENTS_HEADER = [
    "user_id", "day", "cell_row", "cell_col", "regime",
    "start", "end", "power_kw", "energy_kwh",
]


def write_events_csv(events: Iterable[ChargeEvent], path) -> None:
    """Local-clock event dump; timestamps rounded to whole seconds."""
    write_csv(path, EVENTS_HEADER, (
        [
            e.user_id,
            format_epoch(e.day),
            e.cell.row,
            e.cell.col,
            e.regime.value,
            format_epoch(e.day, round(e.start_hour * 3600.0)),
            format_epoch(e.day, round(e.end_hour * 3600.0)),
            repr(e.power_kw),
            repr(e.energy_kwh),
        ]
        for e in events
    ))

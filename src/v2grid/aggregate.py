"""Per-planning-area aggregation of charge events.

Per-user contributions are summed per area and day, then rescaled by
delta / s, where delta is the assumed EV penetration rate and s the share of
the population observed in the mobility data. Energy supply counts discharge
events only; the peak-demand profile counts both charging regimes,
time-averaged within fixed steps of the day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .engine import ChargeEvent, Regime
from .geo import AreaIndex, PlanningArea, planning_area_feature, write_feature_collection
from .ingest import format_epoch, write_csv

UNASSIGNED = "_unassigned"  # reserved id for events in cells outside all areas

AreaDay = tuple[str, int]  # (area id, local epoch-day)


@dataclass(frozen=True)
class ScalingConfig:
    """Population scaling and the time discretisation of the demand profile."""

    ev_penetration: float  # delta in (0, 1]
    observed_users: int  # retained users in the mobility sample
    population: int
    time_step_minutes: float = 15.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ev_penetration <= 1.0:
            raise InvalidConfigError("ev_penetration must lie in (0, 1]")
        if self.observed_users <= 0:
            raise InvalidConfigError("observed_users must be positive")
        if self.population <= 0:
            raise InvalidConfigError("population must be positive")
        if self.observed_users > self.population:
            raise InvalidConfigError("observed_users cannot exceed population")
        if not self.time_step_minutes > 0:
            raise InvalidConfigError("time_step_minutes must be positive")
        steps = 24.0 * 60.0 / self.time_step_minutes
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
            raise InvalidConfigError("time_step_minutes must divide 24 h")

    @property
    def market_share(self) -> float:
        return self.observed_users / self.population

    @property
    def scale(self) -> float:
        """Multiplier applied to every sampled quantity: delta / s."""
        return self.ev_penetration / self.market_share

    @property
    def steps_per_day(self) -> int:
        return int(round(24.0 * 60.0 / self.time_step_minutes))


@dataclass
class AreaAggregate:
    """Scaled per-area, per-day totals; `day` is a local epoch-day index."""

    area_id: str
    day: int
    e_ev_kwh: float
    e_pv_charge_kwh: float
    e_nonpv_charge_kwh: float
    demand_profile: np.ndarray  # kW per time step, scaled
    p_ev_peak_kw: float
    peak_step: int
    p_peak_density_w_per_m2: Optional[float] = None
    charging_points_abs: Optional[int] = None
    charging_points_per_km2: Optional[float] = None


# column of each regime's energy in AggregateBuilder._energy
_COLUMN = {Regime.DISCHARGE: 0, Regime.PV_CHARGE: 1, Regime.NONPV_CHARGE: 2}


class AggregateBuilder:
    """Streaming reduction of charge events into per-(area, day) sums.

    Each area-day is a row of `_energy` (discharge, PV-charge and non-PV
    charge kWh) and of `_profile` (kW per step), numbered as it first
    appears. Every sum adds its terms in event order and, within one event,
    in step order, so the bits depend on the order of the events but not on
    how they are split into batches.
    """

    def __init__(self, index: AreaIndex, scaling: ScalingConfig):
        self.index = index
        self.scaling = scaling
        self.events_unassigned = 0
        self._rows: dict[AreaDay, int] = {}
        self._energy = np.zeros((0, 3))
        self._profile = np.zeros((0, scaling.steps_per_day))

    def add_events(self, events: Iterable[ChargeEvent]) -> None:
        """Add a batch of events. A cell outside the grid raises
        `InvalidInputError` and leaves the builder as it was."""
        keys, cols, values = [], [], []
        unassigned = 0
        for e in events:
            area = self.index.area_of(e.cell)
            if area is None:
                area = UNASSIGNED
                unassigned += 1
            keys.append((area, e.day))
            cols.append(_COLUMN[e.regime])
            values.append((e.energy_kwh, e.start_hour, e.end_hour, e.power_kw))
        self.events_unassigned += unassigned
        rows = [self._rows.setdefault(key, len(self._rows)) for key in keys]
        extra = len(self._rows) - len(self._energy)
        if extra:
            self._energy = np.pad(self._energy, ((0, extra), (0, 0)))
            self._profile = np.pad(self._profile, ((0, extra), (0, 0)))
        row = np.array(rows, dtype=np.intp)
        col = np.array(cols, dtype=np.intp)
        energy, start, end, power = np.array(values, dtype=float).reshape(-1, 4).T
        np.add.at(self._energy, (row, col), energy)

        # time-averaged power of each charging event in each step it overlaps,
        # as (event, step) terms in event-major order, which np.add.at keeps
        row, start, end, power = (a[col > 0] for a in (row, start, end, power))
        steps = self.scaling.steps_per_day
        dt = 24.0 / steps
        i0 = np.floor(start / dt).astype(np.intp)
        i1 = np.minimum(np.ceil(end / dt), steps).astype(np.intp)
        n = np.maximum(i1 - i0, 0)
        ev = np.repeat(np.arange(len(n)), n)
        i = i0[ev] + np.arange(len(ev)) - np.repeat(np.cumsum(n) - n, n)
        overlap = np.minimum(end[ev], (i + 1) * dt) - np.maximum(start[ev], i * dt)
        kept = overlap > 0
        np.add.at(self._profile, (row[ev][kept], i[kept]),
                  (power[ev] * overlap / dt)[kept])

    def aggregates(self) -> dict[AreaDay, AreaAggregate]:
        scale = self.scaling.scale
        out: dict[AreaDay, AreaAggregate] = {}
        for key, row in sorted(self._rows.items()):
            discharge, pv, nonpv = self._energy[row].tolist()
            profile = self._profile[row] * scale
            peak_step = int(np.argmax(profile))
            out[key] = AreaAggregate(
                area_id=key[0],
                day=key[1],
                e_ev_kwh=discharge * scale,
                e_pv_charge_kwh=pv * scale,
                e_nonpv_charge_kwh=nonpv * scale,
                demand_profile=profile,
                p_ev_peak_kw=float(profile[peak_step]),
                peak_step=peak_step,
            )
        return out


class Sizing(NamedTuple):
    density_w_per_m2: float
    points_abs: int
    points_per_km2: float


def peak_density_and_sizing(
    peak_kw: float, area_m2: float, charge_power_kw: float
) -> Sizing:
    """Peak demand density and the charging-point count it implies."""
    if not area_m2 > 0:
        raise InvalidInputError("area_m2 must be positive")
    if not charge_power_kw > 0:
        raise InvalidInputError("charge_power_kw must be positive")
    if peak_kw < 0:
        raise InvalidInputError("peak_kw must be non-negative")
    density = peak_kw * 1000.0 / area_m2
    points_abs = int(math.ceil(peak_kw / charge_power_kw - 1e-12)) if peak_kw > 0 else 0
    points_per_km2 = peak_kw / (area_m2 * charge_power_kw) * 1e6
    return Sizing(density, points_abs, points_per_km2)


class PvSupport(NamedTuple):
    p_pv_w_per_m2: float
    deficit_by_area: dict[str, bool]


def pv_sufficiency(
    pv_efficiency: float,
    panel_area_fraction: float,
    irradiance_w_per_m2: float,
    peak_density_by_area: Optional[Mapping[str, float]] = None,
) -> PvSupport:
    """Local PV generation potential per unit land area, and which areas'
    peak demand density exceeds it."""
    for name, v in (
        ("pv_efficiency", pv_efficiency),
        ("panel_area_fraction", panel_area_fraction),
        ("irradiance_w_per_m2", irradiance_w_per_m2),
    ):
        if not (math.isfinite(v) and v >= 0):
            raise InvalidInputError(f"{name} must be finite and non-negative")
    p_pv = pv_efficiency * panel_area_fraction * irradiance_w_per_m2
    deficits = {}
    if peak_density_by_area:
        deficits = {a: d > p_pv for a, d in sorted(peak_density_by_area.items())}
    return PvSupport(p_pv, deficits)


def attach_sizing(
    aggregates: dict[AreaDay, AreaAggregate],
    areas_by_id: Mapping[str, PlanningArea],
    charge_power_kw: float,
) -> None:
    """Fill density and charging-point fields for areas with known geometry."""
    for (area_id, _day), agg in aggregates.items():
        area = areas_by_id.get(area_id)
        if area is None:
            continue
        sizing = peak_density_and_sizing(agg.p_ev_peak_kw, area.area_m2, charge_power_kw)
        agg.p_peak_density_w_per_m2 = sizing.density_w_per_m2
        agg.charging_points_abs = sizing.points_abs
        agg.charging_points_per_km2 = sizing.points_per_km2


# ---------------------------------------------------------------------------
# Output tables
# ---------------------------------------------------------------------------

def _step_label(step: int, step_minutes: float) -> str:
    minutes = int(round(step * step_minutes))
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def write_area_energy_csv(aggregates: Mapping[AreaDay, AreaAggregate], path) -> None:
    header = ["area_id", "day", "e_ev_kwh", "e_pv_charge_kwh", "e_nonpv_charge_kwh"]
    write_csv(path, header, (
        [area_id, format_epoch(day), repr(agg.e_ev_kwh),
         repr(agg.e_pv_charge_kwh), repr(agg.e_nonpv_charge_kwh)]
        for (area_id, day), agg in sorted(aggregates.items())
    ))


def write_area_peak_csv(aggregates: Mapping[AreaDay, AreaAggregate], path) -> None:
    header = ["area_id", "day", "p_peak_kw", "p_density_w_m2",
              "charging_points_abs", "charging_points_per_km2"]
    write_csv(path, header, (
        [
            area_id,
            format_epoch(day),
            repr(agg.p_ev_peak_kw),
            "" if agg.p_peak_density_w_per_m2 is None else repr(agg.p_peak_density_w_per_m2),
            "" if agg.charging_points_abs is None else agg.charging_points_abs,
            "" if agg.charging_points_per_km2 is None else repr(agg.charging_points_per_km2),
        ]
        for (area_id, day), agg in sorted(aggregates.items())
    ))


def write_area_profile_csv(
    aggregates: Mapping[AreaDay, AreaAggregate], step_minutes: float, path
) -> None:
    n_steps = max((len(agg.demand_profile) for agg in aggregates.values()), default=0)
    step_labels = [_step_label(step, step_minutes) for step in range(n_steps)]

    def rows():
        for (area_id, day), agg in sorted(aggregates.items()):
            day_label = format_epoch(day)
            for step_label, power in zip(step_labels, agg.demand_profile.tolist()):
                yield [area_id, day_label, step_label, repr(power)]

    write_csv(path, ["area_id", "day", "step_start", "power_kw"], rows())


def write_metrics_geojson(
    areas: Iterable[PlanningArea],
    aggregates: Mapping[AreaDay, AreaAggregate],
    e_ev_mean_daily: Mapping[str, float],
    coverage_ratios: Mapping[str, float],
    path,
) -> None:
    """Echo the planning-area geometry with per-area summary metrics: the
    given mean daily energy supply and the maximum daily peak across the
    simulated days."""
    peaks: dict[str, float] = {}
    for (area_id, _day), agg in aggregates.items():
        peaks[area_id] = max(peaks.get(area_id, 0.0), agg.p_ev_peak_kw)
    features = []
    for area in sorted(areas, key=lambda a: a.area_id):
        peak = peaks.get(area.area_id, 0.0)
        props = {
            "e_ev_kwh_mean_daily": e_ev_mean_daily.get(area.area_id, 0.0),
            "p_peak_kw_max": peak,
            "p_density_w_m2": peak * 1000.0 / area.area_m2,
        }
        if area.area_id in coverage_ratios:
            props["coverage_ratio"] = coverage_ratios[area.area_id]
        features.append(planning_area_feature(area, props))
    write_feature_collection(features, path)

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
from .engine import REGIMES, EventColumns, Regime
from .geo import AreaIndex, PlanningArea, area_properties, write_feature_collection
from .ingest import EpochText, csv_fields, format_epoch, write_csv, write_lines

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
        if not 0 < self.population <= 1e10:
            raise InvalidConfigError("population must lie in (0, 1e10]")
        if self.observed_users > self.population:
            raise InvalidConfigError("observed_users cannot exceed population")
        # step_start labels are HH:MM, so a step must be whole minutes
        step = self.time_step_minutes
        if not (step > 0 and float(step).is_integer() and 1440 % step == 0):
            raise InvalidConfigError(
                "time_step_minutes must be a whole number of minutes that divides 24 h"
            )

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


class AggregateBuilder:
    """Streaming reduction of charge events into per-(area, day) sums.

    Each area-day is a row of `_energy` (discharge, PV-charge and non-PV
    charge kWh, the columns of the regime codes of `EventColumns`) and of
    `_profile` (kW per step), numbered as it first appears. Every sum adds
    its terms in event order and, within one event, in step order, so the
    bits depend on the order of the events but not on how they are split
    into batches.
    """

    def __init__(self, index: AreaIndex, scaling: ScalingConfig):
        self.index = index
        self.scaling = scaling
        self.events_unassigned = 0
        self._rows: dict[AreaDay, int] = {}
        self._energy = np.zeros((0, 3))
        self._profile = np.zeros((0, scaling.steps_per_day))

    def add_events(self, events: EventColumns) -> None:
        """Add a batch of events. A cell outside the grid raises
        `InvalidInputError` and leaves the builder as it was."""
        area = self.index.area_codes(events.row, events.col).astype(np.int64)
        if len(area) == 0:
            return
        self.events_unassigned += int(np.count_nonzero(area < 0))
        # each (area, day) of the batch is looked up once
        day0 = int(events.day.min())
        span = int(events.day.max()) - day0 + 1
        keys, inverse = np.unique((area + 1) * span + events.day - day0, return_inverse=True)
        ids = (UNASSIGNED, *self.index.area_ids)
        rows = [
            self._rows.setdefault((ids[key // span], day0 + key % span), len(self._rows))
            for key in keys.tolist()
        ]
        extra = len(self._rows) - len(self._energy)
        if extra:
            self._energy = np.pad(self._energy, ((0, extra), (0, 0)))
            self._profile = np.pad(self._profile, ((0, extra), (0, 0)))
        row = np.array(rows, dtype=np.intp)[inverse]
        col = events.regime.astype(np.intp)
        # on the flat view np.add.at adds the same terms in the same order as on
        # (row, col) pairs, so to the same bits, in under half the time
        np.add.at(self._energy.reshape(-1), row * 3 + col, events.energy_kwh)

        # time-averaged power of each charging event in each step it overlaps,
        # as (event, step) terms in event-major order, which np.add.at keeps
        charging = col != REGIMES.index(Regime.DISCHARGE)
        row, start, end, power = (
            a[charging] for a in (row, events.start_hour, events.end_hour, events.power_kw)
        )
        steps = self.scaling.steps_per_day
        dt = 24.0 / steps
        i0 = np.floor(start / dt).astype(np.intp)
        i1 = np.minimum(np.ceil(end / dt), steps).astype(np.intp)
        n = np.maximum(i1 - i0, 0)
        ev = np.repeat(np.arange(len(n)), n)
        i = i0[ev] + np.arange(len(ev)) - np.repeat(np.cumsum(n) - n, n)
        overlap = np.minimum(end[ev], (i + 1) * dt) - np.maximum(start[ev], i * dt)
        kept = overlap > 0
        np.add.at(self._profile.reshape(-1), (row[ev] * steps + i)[kept],
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
    keys = sorted(aggregates)
    area_ids = sorted({area_id for area_id, _day in keys})
    names = dict(zip(area_ids, csv_fields(area_ids)))
    days = EpochText().days([day for _area_id, day in keys])

    def lines(key, day_label: str) -> list[str]:
        prefix = f"{names[key[0]]},{day_label},"
        return [
            f"{prefix}{step_label},{power!r}\n"
            for step_label, power in zip(step_labels, aggregates[key].demand_profile.tolist())
        ]

    write_lines(path, ["area_id", "day", "step_start", "power_kw"], map(lines, keys, days))


def write_metrics_geojson(
    areas: Iterable[PlanningArea],
    e_ev_mean_daily: Mapping[str, float],
    p_peak_max: Mapping[str, float],
    coverage_ratios: Mapping[str, float],
    path,
) -> None:
    """Echo the planning-area geometry with the given per-area summary
    metrics: mean daily energy supply and maximum daily peak."""
    features = []
    for area in sorted(areas, key=lambda a: a.area_id):
        peak = p_peak_max.get(area.area_id, 0.0)
        props = area_properties(area)
        props["e_ev_kwh_mean_daily"] = e_ev_mean_daily.get(area.area_id, 0.0)
        props["p_peak_kw_max"] = peak
        props["p_density_w_m2"] = peak * 1000.0 / area.area_m2
        if area.area_id in coverage_ratios:
            props["coverage_ratio"] = coverage_ratios[area.area_id]
        features.append((area, props))
    write_feature_collection(features, path)

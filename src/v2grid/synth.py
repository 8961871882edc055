"""Reproducible synthetic users and location records.

Real city-scale phone traces are proprietary, so tests, demos, and the
acceptance run work on generated data instead. Each user follows a
home-anchored day loop (home, a few work/amenity visits, home); stays emit
pings at a fixed interval and travel emits nothing. Users draw from
independent per-user random streams derived from the scenario seed, so
generation order (or parallelism) cannot change the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import InvalidConfigError
from .geo import CellId, GridSpec
from .ingest import DAY_S, LocationRecord, Stay, Trajectory, utc_offset_seconds, write_csv


class PlannedStay(NamedTuple):
    """A stay the generator intends to plant, in local seconds since the
    scenario start's local midnight."""

    cell: CellId
    start_s: int
    end_s: int


# the fixed shape of a user's day loop
_WORK_FRACTION = 0.5  # share of away visits drawn from the work pool
_STAY_DURATION_SIGMA = 0.5  # of the lognormal stay duration
_DEPARTURE_HOUR_MEAN = 8.0  # local hour of the first departure of a day
_DEPARTURE_HOUR_SD = 1.0
_MIN_HOME_STAY_S = 4500  # shorter home visits are not planted


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy seeds its generators with non-negative integers only
        raise InvalidConfigError(f"rng_seed {seed} must be >= 0")


@dataclass(frozen=True)
class SynthConfig:
    rng_seed: int = 42
    n_users: int = 100
    n_days: int = 7
    start_date: date = date(2020, 9, 1)
    utc_offset_hours: float = 8.0
    home_cells: tuple[CellId, ...] = ()
    work_cells: tuple[CellId, ...] = ()
    amenity_cells: tuple[CellId, ...] = ()
    mean_stays_per_day: float = 2.0  # away-from-home visits
    stay_duration_mean_h: float = 2.5
    stay_duration_min_h: float = 0.25
    stay_duration_max_h: float = 12.0
    travel_gap_minutes: float = 20.0
    travel_gap_min_minutes: float = 5.0
    ping_interval_minutes: float = 15.0

    def __post_init__(self) -> None:
        _check_seed(self.rng_seed)
        if self.n_users < 1 or self.n_days < 1:
            raise InvalidConfigError("n_users and n_days must be >= 1")
        if not self.home_cells:
            raise InvalidConfigError("home cell pool must be non-empty")
        if self.mean_stays_per_day > 0 and not (self.work_cells or self.amenity_cells):
            raise InvalidConfigError("need a work or amenity pool for away visits")
        for name in (
            "stay_duration_mean_h", "stay_duration_min_h", "stay_duration_max_h",
            "ping_interval_minutes",
        ):
            if not getattr(self, name) > 0:
                raise InvalidConfigError(f"{name} must be positive")
        if self.stay_duration_min_h > self.stay_duration_max_h:
            raise InvalidConfigError("stay duration bounds inverted")
        if self.mean_stays_per_day < 0:
            raise InvalidConfigError("mean_stays_per_day must be >= 0")
        utc_offset_seconds(self.utc_offset_hours)
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfigError(f"{name} must be finite, not {value}")

    @property
    def utc_offset_s(self) -> int:
        return utc_offset_seconds(self.utc_offset_hours)

    @property
    def local_midnight_utc(self) -> datetime:
        base = datetime.combine(self.start_date, time(0, 0), tzinfo=timezone.utc)
        return base - timedelta(seconds=self.utc_offset_s)

    @classmethod
    def demo(cls, grid: GridSpec, rng_seed: int = 42, n_users: int = 100,
             n_days: int = 7, **overrides) -> "SynthConfig":
        """Config with cell pools sampled deterministically from the grid."""
        _check_seed(rng_seed)
        rng = np.random.default_rng([rng_seed, 0xC0FFEE])
        n_cells = grid.n_cells

        def sample(k: int) -> tuple[CellId, ...]:
            idx = rng.choice(n_cells, size=min(k, n_cells), replace=False)
            return tuple(CellId(int(i) // grid.n_cols, int(i) % grid.n_cols) for i in idx)

        return cls(
            rng_seed=rng_seed,
            n_users=n_users,
            n_days=n_days,
            home_cells=sample(max(4, min(200, n_cells // 4))),
            work_cells=sample(max(2, min(40, n_cells // 8))),
            amenity_cells=sample(max(2, min(60, n_cells // 6))),
            **overrides,
        )


def _user_rng(cfg: SynthConfig, user_index: int) -> np.random.Generator:
    return np.random.default_rng([cfg.rng_seed, user_index])


def _pick(rng, cells, avoid: Optional[CellId] = None) -> CellId:
    """Uniform cell draw; redraws a few times to dodge `avoid`.

    Without the redraw, two consecutive visits to one cell would emit pings
    that downstream run detection cannot tell apart from a single long stay.
    """
    p = np.full(len(cells), 1.0 / len(cells))
    cell = cells[int(rng.choice(len(cells), p=p))]
    retries = 0
    while avoid is not None and cell == avoid and retries < 8:
        cell = cells[int(rng.choice(len(cells), p=p))]
        retries += 1
    return cell


def _duration_s(rng, cfg: SynthConfig) -> int:
    mu = math.log(cfg.stay_duration_mean_h) - _STAY_DURATION_SIGMA**2 / 2.0
    dur_h = float(rng.lognormal(mean=mu, sigma=_STAY_DURATION_SIGMA))
    dur_h = min(max(dur_h, cfg.stay_duration_min_h), cfg.stay_duration_max_h)
    return max(60, int(round(dur_h * 3600)))


def _gap_s(rng, cfg: SynthConfig) -> int:
    gap_min = float(rng.exponential(cfg.travel_gap_minutes))
    gap_min = max(gap_min, cfg.travel_gap_min_minutes)
    return max(60, int(round(gap_min * 60)))


def user_stay_plan(cfg: SynthConfig, user_index: int) -> list[PlannedStay]:
    """Deterministic per-user itinerary over the whole scenario horizon.

    Contiguous home presence is emitted as a single stay, so overnight home
    periods span midnights exactly as the downstream extraction would see
    them.
    """
    rng = _user_rng(cfg, user_index)
    home = _pick(rng, cfg.home_cells)
    horizon = cfg.n_days * DAY_S
    plan: list[PlannedStay] = []
    at_home_since: Optional[int] = 0
    cursor = 0
    prev_cell = home
    for d in range(cfg.n_days):
        day_start = d * DAY_S
        n_away = int(rng.poisson(cfg.mean_stays_per_day))
        if n_away == 0:
            continue
        dep = day_start + int(round(3600 * float(np.clip(
            rng.normal(_DEPARTURE_HOUR_MEAN, _DEPARTURE_HOUR_SD), 4.0, 20.0,
        ))))
        dep = max(dep, cursor + _MIN_HOME_STAY_S)
        if dep >= day_start + DAY_S - 3600:
            continue  # too late to go anywhere today
        if at_home_since is not None and dep > at_home_since:
            plan.append(PlannedStay(home, at_home_since, dep))
        cursor = dep
        at_home_since = None
        for _ in range(n_away):
            arrival = cursor + _gap_s(rng, cfg)
            if arrival >= day_start + DAY_S - 1800:
                break
            use_work = cfg.work_cells and (
                not cfg.amenity_cells or rng.random() < _WORK_FRACTION
            )
            cell = _pick(rng, cfg.work_cells if use_work else cfg.amenity_cells, avoid=prev_cell)
            end = arrival + _duration_s(rng, cfg)
            if end > horizon:
                # a truncated tail visit may fall under the configured
                # minimum; drop it rather than plant an unrecoverable stub
                end = horizon
                if end - arrival < max(60, int(round(cfg.stay_duration_min_h * 3600))):
                    break
            plan.append(PlannedStay(cell, arrival, end))
            prev_cell = cell
            cursor = end
            if end >= horizon:
                break
        if cursor < horizon:
            back = cursor + _gap_s(rng, cfg)
            if back < horizon:
                at_home_since = back
                cursor = back
                prev_cell = home
    if at_home_since is not None and horizon - at_home_since >= _MIN_HOME_STAY_S:
        plan.append(PlannedStay(home, at_home_since, horizon))
    # adjacent same-cell zero-gap entries collapse into one planted stay
    merged: list[PlannedStay] = []
    for st in plan:
        if merged and merged[-1].cell == st.cell and merged[-1].end_s >= st.start_s:
            merged[-1] = PlannedStay(st.cell, merged[-1].start_s, max(merged[-1].end_s, st.end_s))
        else:
            merged.append(st)
    return merged


def _user_id(index: int, width: int) -> str:
    return f"u{index:0{width}d}"


def _id_width(n_users: int) -> int:
    return max(5, len(str(n_users - 1)))


def ping_times_s(start_s: int, end_s: int, interval_s: int) -> list[int]:
    """Ping instants for one stay: every interval from arrival, plus the
    departure instant when the duration is not an exact multiple."""
    k = (end_s - start_s) // interval_s
    times = [start_s + i * interval_s for i in range(int(k) + 1)]
    if times[-1] != end_s:
        times.append(end_s)
    return times


def generate(cfg: SynthConfig, grid: GridSpec) -> Iterator[LocationRecord]:
    """Stream location records for all users, grouped by user in index order."""
    interval_s = max(1, int(round(cfg.ping_interval_minutes * 60)))
    base = cfg.local_midnight_utc
    width = _id_width(cfg.n_users)
    for u in range(cfg.n_users):
        uid = _user_id(u, width)
        plan = user_stay_plan(cfg, u)
        # position jitter per stay keeps pings inside the planned cell
        jitter_rng = np.random.default_rng([cfg.rng_seed, u, 1])
        for st in plan:
            cx = (st.cell.col + 0.5) * grid.cell_size_m
            cy = (st.cell.row + 0.5) * grid.cell_size_m
            jx = float(jitter_rng.uniform(-0.3, 0.3)) * grid.cell_size_m
            jy = float(jitter_rng.uniform(-0.3, 0.3)) * grid.cell_size_m
            lat, lon = grid.unproject(cx + jx, cy + jy)
            for t in ping_times_s(st.start_s, st.end_s, interval_s):
                yield LocationRecord(uid, base + timedelta(seconds=t), lat, lon)


def planted_trajectories(cfg: SynthConfig) -> Iterator[tuple[str, Trajectory]]:
    """Planted stay plans as trajectories, bypassing ping emission.

    Used where only the downstream battery simulation is under test; the
    ping-level path is exercised via :func:`generate` plus the ingest module.
    """
    base_s = int(cfg.local_midnight_utc.timestamp())
    width = _id_width(cfg.n_users)
    for u in range(cfg.n_users):
        uid = _user_id(u, width)
        stays = [
            Stay(uid, st.cell, base_s + st.start_s, base_s + st.end_s)
            for st in user_stay_plan(cfg, u)
        ]
        if stays:
            yield uid, Trajectory(uid, tuple(stays))


# ---------------------------------------------------------------------------
# Demo inputs: planning areas and a system demand curve
# ---------------------------------------------------------------------------

def synthetic_planning_areas(
    grid: GridSpec,
    blocks_lat: int = 3,
    blocks_lon: int = 4,
    rng_seed: int = 7,
) -> "list":
    """Partition the grid bounding box into rectangular planning areas with
    plausible household counts."""
    from .geo import make_rect_area

    rng = np.random.default_rng(rng_seed)
    width_m, height_m = grid.bounds_projected()
    areas = []
    k = 1
    for i in range(blocks_lat):
        for j in range(blocks_lon):
            x0, x1 = width_m * j / blocks_lon, width_m * (j + 1) / blocks_lon
            y0, y1 = height_m * i / blocks_lat, height_m * (i + 1) / blocks_lat
            lat0, lon0 = grid.unproject(x0, y0)
            lat1, lon1 = grid.unproject(x1, y1)
            areas.append(
                make_rect_area(
                    f"A{k:02d}",
                    lat_min=lat0, lat_max=lat1, lon_min=lon0, lon_max=lon1,
                    area_m2=(x1 - x0) * (y1 - y0),
                    households=int(rng.integers(2_000, 60_000)),
                    monthly_kwh_per_household=float(rng.uniform(250.0, 450.0)),
                )
            )
            k += 1
    return areas


_DEMAND_SAMPLES = 48  # half-hourly


def synthetic_demand_curve_values() -> list[float]:
    """Double-peaked daily system demand shape (arbitrary units), one value
    per half hour."""
    values = []
    for i in range(_DEMAND_SAMPLES):
        h = (i + 0.5) * 24.0 / _DEMAND_SAMPLES
        morning = 0.35 * math.exp(-((h - 8.0) ** 2) / 8.0)
        evening = 0.55 * math.exp(-((h - 19.5) ** 2) / 10.0)
        values.append(round(1.0 + morning + evening, 6))
    return values


def write_demand_curve_csv(path) -> None:
    step_min = 24 * 60 // _DEMAND_SAMPLES
    write_csv(path, ["time_of_day", "demand"], (
        [f"{minutes // 60:02d}:{minutes % 60:02d}", repr(v)]
        for minutes, v in zip(range(0, 24 * 60, step_min), synthetic_demand_curve_values())
    ))

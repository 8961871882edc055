"""Household night-time consumption baseline and the coverage comparison.

The night share of daily household energy is read off a city-wide system
demand curve: everything outside the solar window counts as night. Per-area
night-time household energy then anchors the coverage ratio (V2G supply over
household night consumption) and its correlation/regression statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    MissingHouseholdDataError,
    UndefinedFractionError,
)
from .engine import PvWindow, clock_time
from .geo import PlanningArea
from .ingest import DAY_S, write_csv


@dataclass(frozen=True)
class DemandCurve:
    """Uniformly sampled system demand over 24 hours (arbitrary units)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise InvalidInputError("demand curve needs at least 2 samples")
        if any(not math.isfinite(v) or v < 0 for v in self.values):
            raise InvalidInputError("demand samples must be finite and >= 0")

    @property
    def sample_hours(self) -> float:
        return 24.0 / len(self.values)


def read_demand_csv(path) -> DemandCurve:
    """CSV with header time_of_day,demand; uniform times from 00:00, each an
    ``HH:MM[:SS]`` clock time as `engine.clock_time` reads it."""
    rows: list[tuple[int, float]] = []  # (seconds past midnight, demand)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["time_of_day", "demand"]:
                raise InvalidInputError("demand CSV must have header time_of_day,demand")
            for row in reader:
                if len(row) != 2:
                    raise InvalidInputError(f"bad demand row: {row!r}")
                try:
                    hour, minute, second = clock_time(row[0])
                    value = float(row[1])
                except (InvalidInputError, ValueError) as exc:
                    raise InvalidInputError(f"bad demand row: {row!r}: {exc}") from exc
                rows.append((hour * 3600 + minute * 60 + second, value))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInputError(f"demand CSV {path} cannot be read: {exc}") from exc
    if len(rows) < 2:
        raise InvalidInputError("demand curve needs at least 2 samples")
    step = rows[1][0] - rows[0][0]
    if rows[0][0] != 0 or step <= 0 or DAY_S % step != 0 or len(rows) != DAY_S // step:
        raise InvalidInputError("demand samples must uniformly cover 24 h from 00:00")
    for i, (seconds, _) in enumerate(rows):
        if seconds != i * step:
            raise InvalidInputError("demand samples must be uniformly spaced")
    return DemandCurve(tuple(v for _, v in rows))


def night_fraction(curve: DemandCurve, window: PvWindow) -> float:
    """Share of daily demand falling outside the solar window.

    Samples straddling a window boundary contribute pro-rata by overlap.
    """
    dt = curve.sample_hours
    total = 0.0
    night = 0.0

    def overlap(a: float, b: float, lo: float, hi: float) -> float:
        return max(0.0, min(b, hi) - max(a, lo))

    for i, v in enumerate(curve.values):
        s = i * dt
        e = s + dt
        total += v
        night_h = overlap(s, e, 0.0, window.start_hour) + overlap(s, e, window.end_hour, 24.0)
        if night_h >= dt:
            night += v
        elif night_h > 0.0:
            night += v * (night_h / dt)
    if total <= 0.0:
        raise UndefinedFractionError("demand curve sums to zero")
    return night / total


def check_days_in_month(days_in_month: int) -> None:
    if days_in_month < 1:
        raise InvalidInputError("days_in_month must be >= 1")


def household_night_energy(
    area: PlanningArea, days_in_month: int, night_frac: float
) -> float:
    """Daily night-time household energy of one area, in kWh."""
    check_days_in_month(days_in_month)
    if not 0.0 <= night_frac <= 1.0:
        raise InvalidInputError("night fraction must lie in [0, 1]")
    if not area.has_household_data:
        raise MissingHouseholdDataError(
            f"area {area.area_id} lacks households/monthly_kwh_per_household"
        )
    daily = area.monthly_kwh_per_household * area.households / days_in_month
    return daily * night_frac


def household_baselines(
    areas: Sequence[PlanningArea], days_in_month: int, night_frac: float
) -> tuple[dict[str, float], int]:
    """Daily night-time household kWh of every area with household data;
    returns ({area_id: kWh}, skipped)."""
    out: dict[str, float] = {}
    skipped = 0
    for area in sorted(areas, key=lambda a: a.area_id):
        try:
            out[area.area_id] = household_night_energy(area, days_in_month, night_frac)
        except MissingHouseholdDataError:
            skipped += 1
    return out, skipped


@dataclass(frozen=True)
class RegressionSummary:
    pearson_r: float
    p_value: float
    ols_slope: float
    ols_intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class CoverageResult:
    ratios: dict[str, float]  # per area, V2G energy over household night energy
    histogram: list[tuple[float, float, int]]  # (bin_low, bin_high, count)
    stats: Optional[RegressionSummary]
    stats_note: str
    n_paired: int
    n_excluded: int


def pearson_r(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Pearson r of two float64 series of length >= 3 and its two-sided
    p-value; a constant series gives NaN for both.

    r is computed step for step as ``scipy.stats.pearsonr`` (1.17) does, so
    it is the same to the bit. The p-value is the two-sided Student-t tail
    with n - 2 degrees of freedom, computed without scipy (see `_p_value`);
    it agrees with scipy's to about 1e-13 relative."""
    if np.all(x == x[0]) or np.all(y == y[0]):
        return math.nan, math.nan
    xm = x - x.mean()
    ym = y - y.mean()
    xmax = np.abs(xm).max()
    ymax = np.abs(ym).max()
    norm_x = xmax * np.linalg.vector_norm(xm / xmax)
    norm_y = ymax * np.linalg.vector_norm(ym / ymax)
    r = float(np.clip(np.vecdot(xm / norm_x, ym / norm_y), -1.0, 1.0))
    return r, _p_value(r, len(x))


def _p_value(r: float, n: int) -> float:
    """Two-sided p-value of a Pearson r over n >= 3 pairs.

    Under the null hypothesis r is beta(a, a) on (-1, 1) with a = n/2 - 1,
    so p = 2 I_y(a, a), the regularized incomplete beta function at
    y = (1 - |r|)/2. By the duplication formula of Γ,

        2 I_y(a, a) = (4xy)^a Γ(a + 1/2) / (a sqrt(π) Γ(a)) * F,  x = 1 - y,

    with F the continued fraction of `_beta_fraction`.
    """
    a = n / 2 - 1
    x = (abs(r) + 1) / 2  # the argument scipy.stats hands to betaincc
    y = 1.0 - x  # exact, so 4xy = 1 - (x - y)^2
    if not y > 0.0:
        return 0.0 if y == 0.0 else math.nan
    s = x - y
    # log(4xy) loses its relative accuracy as 4xy nears 1, and that error
    # grows a-fold in ln p; log1p(-s^2) loses it as s nears 1
    ln_4xy = math.log1p(-s * s) if s < 0.7 else math.log(4 * x * y)
    ln_p = a * ln_4xy + _ln_gamma_ratio(a) - math.log(a * math.sqrt(math.pi))
    return min(1.0, math.exp(ln_p) * _beta_fraction(a, y))


# B_2k / (2k (2k - 1)), k = 1, 2, 3: Stirling's series of ln Γ
_STIRLING = (1 / 12, -1 / 360, 1 / 1260)


def _ln_gamma_ratio(a: float) -> float:
    """ln(Γ(a + 1/2) / Γ(a)) for a > 0. Above 170, where Γ nears overflow,
    it is the difference of the two Stirling series taken term by term:
    lgamma(a + 1/2) - lgamma(a) would cancel most of its digits."""
    if a <= 170:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    b = a + 0.5
    series = sum(c * (b ** (1 - 2 * k) - a ** (1 - 2 * k)) for k, c in enumerate(_STIRLING, 1))
    return 0.5 * math.log(a) + a * math.log1p(0.5 / a) - 0.5 + series


_TINY = 1e-300  # stands in for a zero denominator, as in Lentz's method


def _beta_fraction(a: float, y: float) -> float:
    """1 / (1 + d1 / (1 + d2 / (1 + ...))), the continued fraction of
    I_y(a, b) (Numerical Recipes, eq. 6.4.5) at b = a, by the modified Lentz
    method. For 0 < y <= 1/2 it converges in fewer than 3 (sqrt(a) + 10)
    terms."""
    c, d, g = 1.0, 0.0, 1.0
    for j in range(1, 1_000_000):
        m = j // 2
        if j % 2:
            dj = -(a + m) * (2 * a + m) * y / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            dj = m * (a - m) * y / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / ((1.0 + dj * d) or _TINY)
        c = (1.0 + dj / c) or _TINY
        g *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            return 1.0 / g
    raise ArithmeticError(f"incomplete beta fraction did not converge at a = {a}")


_BIN_WIDTH = 0.05  # of the coverage ratio histogram
_MAX_HIST_BINS = 2000  # ratios up to 100


def coverage_and_stats(
    e_ev_by_area: Mapping[str, float],
    e_hh_by_area: Mapping[str, float],
) -> CoverageResult:
    """Coverage ratios over paired areas plus the regression of supply on
    household consumption.

    Areas present in only one table, or with non-positive household energy,
    are excluded pairwise. The statistics are withheld, with the ratios and
    the histogram still computed, when there are fewer than 3 pairs or when
    either energy series has zero variance. The ratio histogram has at most
    ``_MAX_HIST_BINS`` bins of ``_BIN_WIDTH`` from 0, plus one row from their
    end to the largest ratio when it lies past them; its counts sum to the
    pairs.
    """
    paired = sorted(
        a for a in e_ev_by_area.keys() & e_hh_by_area.keys() if e_hh_by_area[a] > 0
    )
    n_excluded = len(set(e_ev_by_area) | set(e_hh_by_area)) - len(paired)
    ratios = {a: e_ev_by_area[a] / e_hh_by_area[a] for a in paired}

    hist: list[tuple[float, float, int]] = []
    if ratios:
        vals = np.array([ratios[a] for a in paired])
        top = float(vals.max())
        n_bins = max(1, math.ceil(min(top / _BIN_WIDTH, _MAX_HIST_BINS) - 1e-12))
        # np.histogram drops values past the last edge, which the rounding
        # above can leave a few ulps below `top`
        if n_bins < _MAX_HIST_BINS and top > n_bins * _BIN_WIDTH:
            n_bins += 1
        edges = np.arange(n_bins + 1) * _BIN_WIDTH
        counts, _ = np.histogram(vals, bins=edges)
        hist = [
            (float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(n_bins)
        ]
        if top > edges[-1]:
            hist.append((float(edges[-1]), top, int(np.count_nonzero(vals > edges[-1]))))

    x = np.array([e_hh_by_area[a] for a in paired])
    y = np.array([e_ev_by_area[a] for a in paired])
    withheld = ""
    if len(paired) < 3:
        withheld = "fewer than 3 paired areas"
    # not np.var(x) == 0: the mean of a constant series can round off it
    elif np.all(x == x[0]):
        withheld = "household energy has zero variance"
    elif np.all(y == y[0]):
        withheld = "V2G energy has zero variance"
    if withheld:
        return CoverageResult(
            ratios, hist, None, f"withheld: {withheld}", len(paired), n_excluded
        )
    r, p = pearson_r(x, y)
    slope = float(np.cov(x, y, ddof=0)[0, 1] / np.var(x))
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    summary = RegressionSummary(
        pearson_r=float(r),
        p_value=float(p),
        ols_slope=slope,
        ols_intercept=intercept,
        r_squared=1.0 - ss_res / ss_tot,
        n_points=len(paired),
    )
    return CoverageResult(ratios, hist, summary, "", len(paired), n_excluded)


# ---------------------------------------------------------------------------
# Output tables
# ---------------------------------------------------------------------------

def write_coverage_csv(
    e_ev_by_area: Mapping[str, float],
    e_hh_by_area: Mapping[str, float],
    ratios: Mapping[str, float],
    path,
) -> None:
    write_csv(path, ["area_id", "e_ev_kwh", "e_hh_kwh", "ratio"], (
        [
            area_id,
            repr(e_ev_by_area[area_id]),
            repr(e_hh_by_area[area_id]),
            repr(ratios[area_id]) if area_id in ratios else "",
        ]
        for area_id in sorted(set(e_ev_by_area) & set(e_hh_by_area))
    ))


def write_coverage_hist_csv(histogram: Sequence[tuple[float, float, int]], path) -> None:
    rows = ([repr(low), repr(high), count] for low, high, count in histogram)
    write_csv(path, ["bin_low", "bin_high", "count"], rows)


def write_regression_txt(result: CoverageResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if result.stats is None:
            fh.write(f"statistics {result.stats_note or 'withheld'}\n")
            fh.write(f"n = {result.n_paired}\n")
            return
        s = result.stats
        fh.write(f"r = {s.pearson_r!r}\n")
        fh.write(f"p_value = {s.p_value!r}\n")
        fh.write(f"slope = {s.ols_slope!r}\n")
        fh.write(f"intercept = {s.ols_intercept!r}\n")
        fh.write(f"r_squared = {s.r_squared!r}\n")
        fh.write(f"n = {s.n_points}\n")

"""Night fraction, household baseline arithmetic, coverage statistics."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from v2grid import (
    DemandCurve,
    InvalidInputError,
    MissingHouseholdDataError,
    PvWindow,
    UndefinedFractionError,
    coverage_and_stats,
    household_baselines,
    household_night_energy,
    make_rect_area,
    night_fraction,
    read_demand_csv,
)
from v2grid.baseline import _p_value, pearson_r

WINDOW = PvWindow(9.0, 17.0)


def flat_curve(n=48, value=1.0) -> DemandCurve:
    return DemandCurve(tuple([value] * n))


def spike_curve(lo_hour: float, hi_hour: float, n=48) -> DemandCurve:
    dt = 24.0 / n
    vals = [1.0 if lo_hour <= i * dt and (i + 1) * dt <= hi_hour else 0.0 for i in range(n)]
    return DemandCurve(tuple(vals))


class TestNightFraction:
    def test_flat_curve_gives_two_thirds_exactly(self):
        # 16 of 24 hours lie outside the 9-17 window
        assert night_fraction(flat_curve(), WINDOW) == 2.0 / 3.0

    def test_demand_only_inside_window_gives_zero(self):
        assert night_fraction(spike_curve(10.0, 11.0), WINDOW) == 0.0

    def test_demand_only_after_window_gives_one(self):
        assert night_fraction(spike_curve(17.0, 18.0), WINDOW) == 1.0

    def test_all_zero_curve_is_undefined(self):
        with pytest.raises(UndefinedFractionError):
            night_fraction(DemandCurve(tuple([0.0] * 48)), WINDOW)

    def test_straddling_sample_splits_pro_rata(self):
        # 2-hour samples; the 8-10 sample is half night
        curve = flat_curve(n=12)
        frac = night_fraction(curve, WINDOW)
        assert frac == pytest.approx(2.0 / 3.0, abs=1e-12)
        only = DemandCurve(tuple(1.0 if i == 4 else 0.0 for i in range(12)))
        assert night_fraction(only, WINDOW) == pytest.approx(0.5, abs=1e-12)

    def test_scaling_demand_leaves_fraction_unchanged(self):
        rng = np.random.default_rng(3)
        vals = tuple(float(v) for v in rng.uniform(0.1, 5.0, size=48))
        c1 = DemandCurve(vals)
        c2 = DemandCurve(tuple(3.7 * v for v in vals))
        assert night_fraction(c1, WINDOW) == pytest.approx(
            night_fraction(c2, WINDOW), abs=1e-12
        )

    def test_whole_day_window_gives_zero(self):
        assert night_fraction(flat_curve(), PvWindow(0.0, 24.0)) == 0.0

    def test_nearly_empty_window_approaches_one(self):
        assert night_fraction(flat_curve(n=96), PvWindow(12.0, 12.25)) == pytest.approx(
            1.0 - 0.25 / 24.0, abs=1e-12
        )

    def test_fraction_always_within_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.choice([12, 24, 48, 96, 288]))
            vals = tuple(float(v) for v in rng.uniform(0.0, 10.0, size=n))
            if sum(vals) == 0.0:
                continue
            lo = float(rng.uniform(0.0, 23.0))
            hi = float(rng.uniform(lo + 0.5, 24.0))
            frac = night_fraction(DemandCurve(vals), PvWindow(lo, hi))
            assert 0.0 <= frac <= 1.0


def area(area_id="A01", households=10_000, kwh=300.0):
    return make_rect_area(
        area_id, 0.0, 0.1, 0.0, 0.1, area_m2=1e6,
        households=households, monthly_kwh_per_household=kwh,
    )


class TestHouseholdNightEnergy:
    def test_reference_arithmetic(self):
        # 300 kWh/month * 10000 households / 30 days * 2/3 = 66 666.7 kWh
        e = household_night_energy(area(), 30, 2.0 / 3.0)
        assert e == pytest.approx(66_666.66666666666, abs=1e-6)

    def test_zero_households(self):
        assert household_night_energy(area(households=0), 30, 0.5) == 0.0

    def test_fraction_one_gives_full_daily_energy(self):
        assert household_night_energy(area(), 30, 1.0) == pytest.approx(100_000.0, rel=1e-12)

    def test_missing_data_raises(self):
        bare = make_rect_area("A02", 0.0, 0.1, 0.0, 0.1, area_m2=1e6)
        with pytest.raises(MissingHouseholdDataError):
            household_night_energy(bare, 30, 0.5)

    def test_baseline_table_skips_missing_areas(self):
        bare = make_rect_area("A02", 0.0, 0.1, 0.0, 0.1, area_m2=1e6)
        table, skipped = household_baselines([area(), bare], 30, 0.5)
        assert skipped == 1
        # the night share of the whole day's energy
        assert table == {"A01": 0.5 * household_night_energy(area(), 30, 1.0)}

    @pytest.mark.parametrize("field", ["households", "kwh"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1])
    def test_non_finite_or_negative_household_data_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match="must be finite and >= 0"):
            area(**{field: value})


class TestCoverageAndStats:
    def test_exact_proportionality_recovers_slope_r_one(self):
        e_hh = {f"A{i:02d}": 1000.0 + 250.0 * i for i in range(10)}
        c = 0.137
        e_ev = {k: c * v for k, v in e_hh.items()}
        result = coverage_and_stats(e_ev, e_hh)
        s = result.stats
        assert s is not None
        assert s.pearson_r == pytest.approx(1.0, abs=1e-9)
        assert s.r_squared == pytest.approx(1.0, abs=1e-9)
        assert s.ols_slope == pytest.approx(c, abs=1e-9)
        assert s.ols_intercept == pytest.approx(0.0, abs=1e-6)
        for k in e_hh:
            assert result.ratios[k] == pytest.approx(c, rel=1e-12)

    def test_constant_household_energy_is_degenerate(self):
        e_hh = {"A": 5.0, "B": 5.0, "C": 5.0}
        e_ev = {"A": 1.0, "B": 2.0, "C": 3.0}
        result = coverage_and_stats(e_ev, e_hh)
        assert result.stats is None
        assert result.stats_note == "withheld: household energy has zero variance"
        assert result.ratios == {"A": 0.2, "B": 0.4, "C": 0.6}
        assert sum(c for _, _, c in result.histogram) == result.n_paired == 3

    def test_constant_household_energy_beside_a_zero_household_area(self):
        # D has no household energy: it is excluded, not one of the n pairs
        e_hh = {"A": 5.0, "B": 5.0, "C": 5.0, "D": 0.0}
        e_ev = {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0}
        result = coverage_and_stats(e_ev, e_hh)
        assert result.stats is None
        assert result.stats_note == "withheld: household energy has zero variance"
        assert (result.n_paired, result.n_excluded) == (3, 1)
        assert set(result.ratios) == {"A", "B", "C"}
        assert sum(c for _, _, c in result.histogram) == 3

    @pytest.mark.parametrize("series", ["household", "V2G"])
    def test_constant_series_whose_mean_rounds_is_withheld(self, series):
        # np.var of three 0.1s is about 1.9e-34, not 0
        constant = {"A": 0.1, "B": 0.1, "C": 0.1}
        varied = {"A": 1.0, "B": 2.0, "C": 3.0}
        e_hh, e_ev = (constant, varied) if series == "household" else (varied, constant)
        result = coverage_and_stats(e_ev, e_hh)
        assert result.stats is None
        assert result.stats_note == f"withheld: {series} energy has zero variance"

    def test_constant_supply_withholds_stats(self):
        e_hh = {"A": 5.0, "B": 6.0, "C": 7.0}
        e_ev = {"A": 0.0, "B": 0.0, "C": 0.0}
        result = coverage_and_stats(e_ev, e_hh)
        assert result.stats is None
        assert "zero variance" in result.stats_note

    def test_fewer_than_three_pairs_withholds_stats(self):
        result = coverage_and_stats({"A": 1.0, "B": 2.0}, {"A": 4.0, "B": 5.0})
        assert result.stats is None
        assert result.ratios == {"A": 0.25, "B": 0.4}

    def test_histogram_counts_sum_to_paired_areas(self):
        rng = np.random.default_rng(5)
        e_hh = {f"A{i}": float(rng.uniform(100, 200)) for i in range(25)}
        e_ev = {k: float(rng.uniform(5, 60)) for k in e_hh}
        result = coverage_and_stats(e_ev, e_hh)
        assert sum(c for _, _, c in result.histogram) == result.n_paired == 25
        for low, high, _ in result.histogram:
            assert high - low == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("top", [
        v
        for k in (1, 2, 3, 7, 20, 199, 1000, 1999, 2000, 2001)
        for v in (np.nextafter(k * 0.05, 0.0), k * 0.05, np.nextafter(k * 0.05, np.inf))
    ])
    def test_histogram_keeps_a_largest_ratio_at_a_bin_edge(self, top):
        hist = coverage_and_stats({"a": 0.0, "b": float(top)}, {"a": 1.0, "b": 1.0}).histogram
        assert sum(c for _, _, c in hist) == 2
        assert hist[-1][0] < top <= hist[-1][1]

    @pytest.mark.parametrize("scale", [1.0, 1e18])
    def test_histogram_past_ratio_100_ends_in_one_overflow_row(self, scale):
        # ratios 0.5, 50, 553 and 553e18: 2000 bins of 0.05 cover [0, 100],
        # one more row counts the rest up to the largest ratio
        e_hh = {"A": 2.0, "B": 2.0, "C": 1.0, "D": 1.0}
        e_ev = {"A": 1.0, "B": 100.0, "C": 553.0, "D": 553.0 * scale}
        hist = coverage_and_stats(e_ev, e_hh).histogram
        assert len(hist) == 2001
        assert hist[-1] == (100.0, 553.0 * scale, 2)
        assert hist[-2][1] == 100.0
        assert sum(c for _, _, c in hist) == 4

    def test_r_squared_equals_r_squared_of_pearson(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.uniform(10, 100, size=20)
            y = 0.3 * x + rng.normal(0, 5.0, size=20)
            e_hh = {f"A{i}": float(v) for i, v in enumerate(x)}
            e_ev = {f"A{i}": float(v) for i, v in enumerate(y)}
            result = coverage_and_stats(e_ev, e_hh)
            s = result.stats
            assert s.r_squared == pytest.approx(s.pearson_r**2, abs=1e-12)

    def test_strong_correlation_has_tiny_p_value(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(10, 100, size=40)
        y = 0.2 * x + rng.normal(0, 0.5, size=40)
        e_hh = {f"A{i}": float(v) for i, v in enumerate(x)}
        e_ev = {f"A{i}": float(v) for i, v in enumerate(y)}
        s = coverage_and_stats(e_ev, e_hh).stats
        assert s.p_value < 0.001

    def test_areas_with_zero_household_energy_are_excluded(self):
        e_hh = {"A": 5.0, "B": 0.0, "C": 7.0, "D": 9.0}
        e_ev = {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0}
        result = coverage_and_stats(e_ev, e_hh)
        assert "B" not in result.ratios
        assert result.n_paired == 3


def assert_p_close(got: float, want: float, context=None) -> None:
    """The p-value gate: 1e-13 * max(1, |ln p|) relative to scipy's p where
    that is at least 1e-300, 1e-300 absolute below it."""
    if math.isnan(want):
        assert math.isnan(got), context
    elif want >= 1e-300:
        assert abs(got - want) <= 1e-13 * max(1.0, abs(math.log(want))) * want, (
            context, got, want)
    else:
        assert abs(got - want) <= 1e-300, (context, got, want)


def scipy_p(r, n: int):
    # the p-value scipy.stats.pearsonr (1.17) computes from r and n
    ab = n / 2 - 1
    return 2 * special.betaincc(ab, ab, (np.abs(r) + 1) / 2)


class TestPearsonR:
    def test_matches_scipy_pearsonr(self):
        # scipy.stats is the oracle here only: the package does not import it
        rng = np.random.default_rng(17)
        for k in range(3000):
            n = int(rng.integers(3, 60))
            x = rng.normal(size=n) * 10 ** rng.uniform(-3, 6)
            y = rng.uniform(-2, 2) * x + rng.normal(size=n) * 10 ** rng.uniform(-3, 6)
            if k % 5 == 0:
                y = 2.5 * x + 1.0  # |r| at or near 1
            if k % 11 == 0:
                x = np.round(x, 1)  # ties, sometimes constant (r undefined)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = stats.pearsonr(x, y)
            r, p = pearson_r(x, y)
            assert np.array_equal(r, want.statistic, equal_nan=True), k
            assert_p_close(p, float(want.pvalue), k)

    # n = 3..60 and far past the 170 where the Γ ratio switches to Stirling
    @pytest.mark.parametrize("n", [*range(3, 61), 100, 1000, 10_000])
    def test_p_value_grid(self, n):
        rs = np.concatenate([
            np.linspace(-1.0, 1.0, 81),
            [1e-300, 1e-12, 1e-6, 1e-3, 0.7, 1 - 1e-6, 1 - 1e-12, np.nextafter(1.0, 0.0)],
        ])
        for r, want in zip(rs, scipy_p(rs, n)):
            assert_p_close(_p_value(float(r), n), float(want), r)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 10_000),
        r=st.floats(-1.0, 1.0) | st.floats(-0.05, 0.05) | st.floats(0.99, 1.0),
    )
    def test_p_value_matches_scipy(self, n, r):
        p = _p_value(r, n)
        assert 0.0 <= p <= 1.0
        assert_p_close(p, float(scipy_p(r, n)))

    @pytest.mark.parametrize("n", [3, 4, 55, 10_000])
    def test_perfect_correlation_gives_zero(self, n):
        assert _p_value(1.0, n) == 0.0
        assert _p_value(-1.0, n) == 0.0

    def test_nan_r_gives_nan(self):
        assert math.isnan(_p_value(math.nan, 10))
        r, p = pearson_r(np.array([1.0, math.nan, 3.0, 4.0]), np.array([1.0, 2.0, 3.0, 5.0]))
        assert math.isnan(r) and math.isnan(p)

    def test_three_points(self):
        x, y = np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0])
        want = stats.pearsonr(x, y)
        r, p = pearson_r(x, y)
        assert r == want.statistic == pytest.approx(0.5, rel=1e-15)
        assert_p_close(p, float(want.pvalue))
        # at n = 3, p = (4 / pi) asin(sqrt((1 - r) / 2)) = (4 / pi) (pi / 6)
        assert p == pytest.approx(2 / 3, rel=1e-14)

    def test_constant_series_gives_nan(self):
        constant, varying = np.full(5, 2.0), np.arange(5.0)
        for x, y in [(constant, varying), (varying, constant)]:
            r, p = pearson_r(x, y)
            assert math.isnan(r) and math.isnan(p)


class TestDemandCsv:
    def test_round_trip(self, tmp_path):
        from v2grid import write_demand_curve_csv

        path = tmp_path / "demand.csv"
        write_demand_curve_csv(path)
        curve = read_demand_csv(path)
        assert len(curve.values) == 48
        assert curve.sample_hours == 0.5
        frac = night_fraction(curve, WINDOW)
        assert 0.0 < frac < 1.0

    def test_irregular_spacing_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_of_day,demand\n00:00,1.0\n00:30,1.0\n02:00,1.0\n")
        with pytest.raises(InvalidInputError):
            read_demand_csv(path)

    # int() would read each of these as 12:00
    @pytest.mark.parametrize("clock", ["00:720", "1_2:00", "\uff11\uff12:00", " 12:00"])
    def test_clock_time_must_be_hh_mm(self, tmp_path, clock):
        path = tmp_path / "bad.csv"
        path.write_text(f"time_of_day,demand\n00:00,1.0\n{clock},1.0\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="is not HH:MM"):
            read_demand_csv(path)

    def test_negative_demand_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_of_day,demand\n00:00,1.0\n12:00,-1.0\n")
        with pytest.raises(InvalidInputError):
            read_demand_csv(path)

"""Battery state machine: depletion, regime rules, and oracle equivalence."""

from __future__ import annotations

import dataclasses
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from v2grid import (
    AggregateBuilder,
    AreaIndex,
    CellId,
    ChargeEvent,
    DayStay,
    EventColumns,
    GridSpec,
    InvalidInputError,
    PvWindow,
    Regime,
    ScalingConfig,
    Stay,
    StayColumns,
    Trajectory,
    VehicleParams,
    cell_distance_m,
    day_range_of,
    drive_depletion_kwh,
    run_scenario,
    simulate_day,
    simulate_user_days,
)
from v2grid.ingest import DAY_S
from conftest import epoch_day, stay, utc_dt
from oracles import (
    aggregate_per_event,
    brute_force_day,
    group_events,
    simulate_day_reference,
    slice_trajectory_days,
)

DAY = date(2020, 9, 1)
A = CellId(1, 1)
B = CellId(5, 5)


class TestDepletion:
    def test_zero_distance(self, params):
        assert drive_depletion_kwh(0.0, params) == 0.0

    def test_full_range_drains_full_battery(self, params):
        # 25 / 135 * 135 = 25 kWh
        assert drive_depletion_kwh(135.0, params) == pytest.approx(25.0, abs=1e-9)

    def test_ten_km(self, params):
        # 25 / 135 * 10 = 1.8518518... kWh (1.85185 at 5 decimals)
        expected = 25.0 / 135.0 * 10.0
        got = drive_depletion_kwh(10.0, params)
        assert got == pytest.approx(expected, abs=1e-9)
        assert round(got, 5) == 1.85185

    def test_negative_distance_rejected(self, params):
        with pytest.raises(InvalidInputError):
            drive_depletion_kwh(-1.0, params)


class TestVehicleParams:
    @pytest.mark.parametrize(
        "name", ["capacity_kwh", "range_km", "charge_power_kw", "discharge_power_kw"]
    )
    def test_infinite_rating_rejected(self, name):
        with pytest.raises(InvalidInputError):
            VehicleParams(**{name: math.inf})


def soc_at_arrival(params: VehicleParams, soc: float) -> VehicleParams:
    from dataclasses import replace

    return replace(params, soc_initial=soc)


class TestPvWindowFromTimes:
    @pytest.mark.parametrize(
        "start, end, hours",
        [
            ("09:00", "17:00", (9.0, 17.0)),
            ("00:00", "24:00", (0.0, 24.0)),
            ("08:30:36", "24:00:00", (8.51, 24.0)),
        ],
    )
    def test_clock_times_parse_to_hours(self, start, end, hours):
        window = PvWindow.from_times(start, end)
        assert (window.start_hour, window.end_hour) == pytest.approx(hours, abs=1e-12)

    @pytest.mark.parametrize(
        "start, end",
        [
            ("25:00", "17:00"),
            ("abc", "17:00"),
            ("9:00", "17:00"),
            ("09:00", "24:01"),
            ("09:60", "17:00"),
            ("09:00", "17:00:60"),
            ("09:00", "17:00+08:00"),
            ("24:00", "24:00"),
            ("17:00", "09:00"),
        ],
    )
    def test_malformed_or_out_of_range_rejected(self, start, end):
        with pytest.raises(InvalidInputError):
            PvWindow.from_times(start, end)


class TestSimulateDayExamples:
    def test_evening_discharge_to_threshold(self, params, window, grid):
        # stay 18:00-21:00 arriving at SOC 0.9: discharge min((0.9-0.5)*25,
        # 6.6*3) = 10 kWh over 10/6.6 h, then idle at the 0.5 floor
        p = soc_at_arrival(params, 0.9)
        trace = simulate_day("u", DAY, [DayStay(A, 18.0, 21.0)], p, window, grid)
        assert len(trace.events) == 1
        ev = trace.events[0]
        assert ev.regime is Regime.DISCHARGE
        assert ev.energy_kwh == pytest.approx(10.0, abs=1e-9)
        assert ev.duration_h == pytest.approx(10.0 / 6.6, abs=1e-9)
        assert trace.soc_final == pytest.approx(0.5, abs=1e-12)

    def test_window_charge_to_full_then_idle(self, params, window, grid):
        # stay 09:00-17:00 from SOC 0.5: (1-0.5)*25 = 12.5 kWh over 12.5/6.6 h,
        # idle until 17:00, and the stay ends with the window (no discharge)
        trace = simulate_day("u", DAY, [DayStay(A, 9.0, 17.0)], params, window, grid)
        assert len(trace.events) == 1
        ev = trace.events[0]
        assert ev.regime is Regime.PV_CHARGE
        assert ev.energy_kwh == pytest.approx(12.5, abs=1e-9)
        assert ev.duration_h == pytest.approx(12.5 / 6.6, abs=1e-9)
        assert ev.start_hour == 9.0
        assert trace.soc_final == pytest.approx(1.0, abs=1e-12)

    def test_threshold_equality_idles_until_window(self, params, window, grid):
        # stay 08:00-10:00 arriving exactly at the 0.5 threshold: idle for an
        # hour, then window charging adds 6.6 kWh -> SOC 0.5 + 6.6/25 = 0.764
        trace = simulate_day("u", DAY, [DayStay(A, 8.0, 10.0)], params, window, grid)
        assert len(trace.events) == 1
        ev = trace.events[0]
        assert ev.regime is Regime.PV_CHARGE
        assert (ev.start_hour, ev.end_hour) == (9.0, 10.0)
        assert ev.energy_kwh == pytest.approx(6.6, abs=1e-12)
        assert trace.soc_final == pytest.approx(0.764, abs=1e-9)

    def test_no_stays_is_a_flat_trace(self, params, window, grid):
        trace = simulate_day("u", DAY, [], params, window, grid)
        assert trace.events == []
        assert trace.breakpoints == [(0.0, 0.5), (24.0, 0.5)]

    def test_below_threshold_outside_window_charges_up_to_threshold(
        self, params, window, grid
    ):
        # arriving at 0.2, 20:00-23:00: charge (0.5-0.2)*25 = 7.5 kWh
        p = soc_at_arrival(params, 0.2)
        trace = simulate_day("u", DAY, [DayStay(A, 20.0, 23.0)], p, window, grid)
        ev = trace.events[0]
        assert ev.regime is Regime.NONPV_CHARGE
        assert ev.energy_kwh == pytest.approx(7.5, abs=1e-9)
        assert trace.soc_final == pytest.approx(0.5, abs=1e-12)

    def test_stay_spanning_window_boundary_switches_regime(self, params, window, grid):
        # 0.9 at 07:00: discharge to 0.5 before 09:00, then solar charging
        p = soc_at_arrival(params, 0.9)
        trace = simulate_day("u", DAY, [DayStay(A, 7.0, 12.0)], p, window, grid)
        regimes = [e.regime for e in trace.events]
        assert regimes == [Regime.DISCHARGE, Regime.PV_CHARGE]
        assert trace.events[0].end_hour < 9.0
        assert trace.events[1].start_hour == 9.0

    def test_depletion_jump_between_stays(self, params, window, grid):
        trace = simulate_day(
            "u", DAY, [DayStay(A, 1.0, 3.0), DayStay(B, 4.0, 6.0)], params, window, grid
        )
        assert len(trace.depletion_jumps) == 1
        jump = trace.depletion_jumps[0]
        assert jump.hour == 4.0
        # 4 cells east, 4 north of 250 m: ~1414 m -> dSOC ~ 1.414/135
        assert jump.soc_drop == pytest.approx(math.hypot(1.0, 1.0) / 135.0, rel=1e-3)
        assert not jump.clamped

    def test_trip_beyond_remaining_range_clamps_at_zero(self, window):
        # 0.4 at 18:00 charges up to the 0.5 threshold first; the ~10.6 km hop
        # then needs far more than half a 0.5 km range -> clamp at SOC 0
        tiny = VehicleParams(range_km=0.5, soc_initial=0.4)
        wide = GridSpec(0.0, 0.0, 250.0, 40, 40)
        trace = simulate_day(
            "u", DAY, [DayStay(CellId(0, 0), 18.0, 19.0), DayStay(CellId(30, 30), 20.0, 21.0)],
            tiny, window, wide,
        )
        assert trace.range_exceeded == 1
        jump = trace.depletion_jumps[0]
        assert jump.clamped and jump.soc_drop == pytest.approx(0.5, abs=1e-12)
        assert min(s for _, s in trace.breakpoints) == 0.0

    def test_pv_charge_target_caps_window_charging(self, params, window, grid):
        from dataclasses import replace

        capped = replace(params, pv_charge_target=0.8)
        trace = simulate_day("u", DAY, [DayStay(A, 9.0, 17.0)], capped, window, grid)
        ev = trace.events[0]
        # (0.8 - 0.5) * 25 = 7.5 kWh, then idle at the configured ceiling
        assert ev.energy_kwh == pytest.approx(7.5, abs=1e-9)
        assert trace.soc_final == pytest.approx(0.8, abs=1e-12)
        assert max(s for _, s in trace.breakpoints) <= 0.8 + 1e-12

    def test_stay_outside_day_bounds_rejected(self, params, window, grid):
        with pytest.raises(InvalidInputError):
            simulate_day("u", DAY, [DayStay(A, 23.0, 25.0)], params, window, grid)
        with pytest.raises(InvalidInputError):
            simulate_day(
                "u", DAY, [DayStay(A, 5.0, 7.0), DayStay(B, 6.0, 8.0)],
                params, window, grid,
            )


def _random_day(rng, grid, max_stays=5) -> list[DayStay]:
    """Random minute-aligned, non-overlapping stays."""
    n = int(rng.integers(0, max_stays + 1))
    bounds = sorted(rng.choice(24 * 60, size=2 * n, replace=False))
    stays = []
    for i in range(n):
        s, e = int(bounds[2 * i]), int(bounds[2 * i + 1])
        if e - s < 10:
            continue
        cell = CellId(int(rng.integers(0, grid.n_rows)), int(rng.integers(0, grid.n_cols)))
        stays.append(DayStay(cell, s / 60.0, e / 60.0))
    return stays


def _random_params(rng) -> VehicleParams:
    return VehicleParams(
        capacity_kwh=float(rng.uniform(15, 40)),
        range_km=float(rng.uniform(80, 200)),
        charge_power_kw=float(rng.uniform(3, 11)),
        discharge_power_kw=float(rng.uniform(3, 11)),
        soc_threshold=float(rng.uniform(0.2, 0.8)),
        soc_initial=float(rng.uniform(0.0, 1.0)),
    )


class TestEngineInvariants:
    def test_soc_bounds_slopes_and_conservation(self, grid, window):
        rng = np.random.default_rng(42)
        for _ in range(60):
            params = _random_params(rng)
            stays = _random_day(rng, grid)
            trace = simulate_day("u", DAY, stays, params, window, grid)
            for _t, s in trace.breakpoints:
                assert -1e-12 <= s <= 1.0 + 1e-12
            allowed = {
                0.0,
                params.charge_power_kw / params.capacity_kwh,
                -params.discharge_power_kw / params.capacity_kwh,
            }
            for (t1, s1), (t2, s2) in zip(trace.breakpoints, trace.breakpoints[1:]):
                if t2 - t1 <= 1e-12:
                    continue
                slope = (s2 - s1) / (t2 - t1)
                assert any(abs(slope - a) < 1e-6 for a in allowed)
            # energy conservation with applied (clamped) jumps
            charge = trace.charge_kwh
            discharge = trace.discharge_kwh
            jumps = sum(j.soc_drop for j in trace.depletion_jumps)
            lhs = trace.soc_final - trace.soc_initial
            rhs = (charge - discharge) / params.capacity_kwh - jumps
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_regime_window_separation(self, grid, window):
        rng = np.random.default_rng(43)
        for _ in range(40):
            trace = simulate_day(
                "u", DAY, _random_day(rng, grid), _random_params(rng), window, grid
            )
            for ev in trace.events:
                if ev.regime is Regime.PV_CHARGE:
                    assert ev.start_hour >= window.start_hour - 1e-12
                    assert ev.end_hour <= window.end_hour + 1e-12
                else:
                    assert ev.end_hour <= window.start_hour + 1e-12 or (
                        ev.start_hour >= window.end_hour - 1e-12
                    )

    def test_floor_and_ceiling_respected(self, grid, window):
        rng = np.random.default_rng(44)
        for _ in range(40):
            params = _random_params(rng)
            trace = simulate_day(
                "u", DAY, _random_day(rng, grid), params, window, grid
            )
            soc = params.soc_initial
            for ev in trace.events:
                if ev.regime is Regime.DISCHARGE:
                    assert ev.energy_kwh / params.capacity_kwh <= (
                        1.0 + 1e-9
                    )  # sanity
            for _t, s in trace.breakpoints:
                assert s <= 1.0 + 1e-12

    def test_raising_threshold_never_increases_discharge(self, grid, window):
        from dataclasses import replace

        rng = np.random.default_rng(45)
        for _ in range(15):
            base = _random_params(rng)
            stays = _random_day(rng, grid)
            previous = math.inf
            for thr in (0.1, 0.3, 0.5, 0.7, 0.9):
                params = replace(base, soc_threshold=thr)
                trace = simulate_day("u", DAY, stays, params, window, grid)
                total = trace.discharge_kwh
                assert total <= previous + 1e-9
                previous = total

    def test_identical_inputs_give_identical_event_lists(self, params, window, grid):
        stays = [DayStay(A, 7.25, 11.0), DayStay(B, 12.0, 20.5)]
        t1 = simulate_day("u", DAY, stays, params, window, grid)
        t2 = simulate_day("u", DAY, stays, params, window, grid)
        assert t1.events == t2.events
        assert t1.breakpoints == t2.breakpoints


class TestOracleEquivalence:
    def test_event_engine_matches_minute_stepper(self, grid, window):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            params = _random_params(rng)
            stays = _random_day(rng, grid)
            trace = simulate_day("u", DAY, stays, params, window, grid)
            oracle_energy, oracle_soc, oracle_jumps = brute_force_day(
                stays, params, window, grid
            )
            grouped, counts = group_events(trace.events, stays)
            keys = set(grouped) | set(oracle_energy)
            for key in keys:
                allowance = 0.11 * max(1, counts.get(key, 1))
                assert abs(grouped.get(key, 0.0) - oracle_energy.get(key, 0.0)) <= allowance
            assert trace.soc_final == pytest.approx(oracle_soc, abs=1e-6)
            assert sum(j.soc_drop for j in trace.depletion_jumps) == pytest.approx(
                sum(oracle_jumps), abs=1e-9
            )


class TestRunScenario:
    def test_one_user_two_days_two_traces(self, params, window, grid):
        traj = Trajectory(
            "u",
            (
                stay("u", A, utc_dt(2020, 9, 1, 10, 0), utc_dt(2020, 9, 1, 12, 0)),
                stay("u", B, utc_dt(2020, 9, 2, 10, 0), utc_dt(2020, 9, 2, 12, 0)),
            ),
        )
        traces = list(run_scenario({"u": traj}, params, window, grid, utc_offset_s=0))
        assert [t.day for t in traces] == [epoch_day(2020, 9, 1), epoch_day(2020, 9, 2)]

    def test_midnight_spanning_stay_splits_with_soc_reset(self, params, window, grid):
        traj = Trajectory(
            "u", (stay("u", A, utc_dt(2020, 9, 1, 23, 0), utc_dt(2020, 9, 2, 1, 30)),)
        )
        by_day = slice_trajectory_days(traj, 0)
        assert by_day[epoch_day(2020, 9, 1)] == [DayStay(A, 23.0, 24.0)]
        assert by_day[epoch_day(2020, 9, 2)] == [DayStay(A, 0.0, 1.5)]
        traces = list(run_scenario({"u": traj}, params, window, grid, utc_offset_s=0))
        assert len(traces) == 2
        for t in traces:
            assert t.breakpoints[0] == (0.0, params.soc_initial)

    def test_timezone_offset_moves_the_split(self, params, window, grid):
        # 16:00 UTC = local midnight at UTC+8
        traj = Trajectory(
            "u", (stay("u", A, utc_dt(2020, 9, 1, 15, 0), utc_dt(2020, 9, 1, 17, 0)),)
        )
        by_day = slice_trajectory_days(traj, 8 * 3600)
        assert by_day[epoch_day(2020, 9, 1)] == [DayStay(A, 23.0, 24.0)]
        assert by_day[epoch_day(2020, 9, 2)] == [DayStay(A, 0.0, 1.0)]

    def test_day_range_covers_all_observed_days(self, params, window, grid):
        traj = Trajectory(
            "u",
            (
                stay("u", A, utc_dt(2020, 9, 1, 10, 0), utc_dt(2020, 9, 1, 12, 0)),
                stay("u", A, utc_dt(2020, 9, 4, 10, 0), utc_dt(2020, 9, 4, 12, 0)),
            ),
        )
        days = day_range_of(StayColumns.from_trajectories([traj]), 0)
        assert days == [epoch_day(2020, 9, d) for d in (1, 2, 3, 4)]
        traces = list(run_scenario({"u": traj}, params, window, grid, utc_offset_s=0))
        assert len(traces) == 4
        assert traces[1].events == [] and traces[2].events == []


_HOURS = st.floats(0.0, 24.0)


@st.composite
def setups(draw):
    """A grid, parameters and a window. Window bounds favour the ends of the
    day; the initial SOC favours the threshold and points `k` dust units
    (1e-12 kWh) past it, and the PV target favours the initial SOC and
    values below it."""
    grid = GridSpec(
        draw(st.sampled_from([-33.9, 0.0, 1.22, 60.0])),
        draw(st.sampled_from([-179.0, 0.0, 103.6, 151.1])),
        draw(st.sampled_from([100.0, 250.0, 1000.0])),
        draw(st.integers(1, 40)),
        draw(st.integers(1, 40)),
    )
    start, end = sorted(draw(st.lists(
        st.sampled_from([0.0, 9.0, 17.0, 24.0]) | _HOURS, min_size=2, max_size=2, unique=True,
    )))
    window = PvWindow(start, end)
    cap = draw(st.sampled_from([0.001, 25.0]) | st.floats(0.01, 100.0))
    thr = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    dust = st.sampled_from([0.5, 1.0, 2.0]).map(lambda k: thr + k * 1e-12 / cap)
    soc = draw(st.just(thr) | dust | st.floats(0.0, 1.0))
    soc = min(max(soc, 0.0), 1.0)
    params = VehicleParams(
        capacity_kwh=cap,
        range_km=draw(st.sampled_from([0.1, 0.5, 135.0]) | st.floats(1.0, 300.0)),
        charge_power_kw=draw(st.sampled_from([1e-9, 6.6]) | st.floats(0.5, 20.0)),
        discharge_power_kw=draw(st.sampled_from([1e-9, 6.6]) | st.floats(0.5, 20.0)),
        soc_threshold=thr,
        soc_initial=soc,
        pv_charge_target=draw(
            st.sampled_from([soc, min(soc + 1e-12 / cap, 1.0), 1.0]) | st.floats(0.0, soc)
            | st.floats(0.0, 1.0)
        ),
    )
    return grid, params, window


def grid_cells(grid: GridSpec):
    """Cells of `grid`, favouring three corners, so that trips are long."""
    corners = [CellId(0, 0), CellId(grid.n_rows - 1, grid.n_cols - 1), CellId(0, grid.n_cols - 1)]
    return st.sampled_from(corners) | st.builds(
        CellId, st.integers(0, grid.n_rows - 1), st.integers(0, grid.n_cols - 1)
    )


@st.composite
def engine_cases(draw):
    """A grid, parameters, a window and one day of stays. Stay boundaries
    favour the window's and the ends of the day."""
    grid, params, window = draw(setups())
    bounds = sorted(draw(st.lists(
        st.sampled_from([0.0, 24.0, window.start_hour, window.end_hour]) | _HOURS,
        max_size=12, unique=True,
    )))
    cells = grid_cells(grid)
    stays = [
        DayStay(draw(cells), a, b)
        for a, b in zip(bounds, bounds[1:])
        if draw(st.booleans())
    ]
    return grid, params, window, stays


def _trace_fields(trace) -> tuple[str, ...]:
    return tuple(map(repr, (
        trace.breakpoints, trace.events, trace.depletion_jumps,
        trace.soc_final, trace.range_exceeded,
    )))


def _trace_repr(simulate, case) -> tuple[str, ...]:
    grid, params, window, stays = case
    return _trace_fields(simulate("u", 18506, stays, params, window, grid))


_EQUATOR = GridSpec(0.0, 0.0, 250.0, 20, 20)
_FAR = [DayStay(CellId(0, 0), 1.0, 2.0), DayStay(CellId(19, 19), 3.0, 9.0)]


class TestMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(case=engine_cases())
    # idle at the threshold outside the window, then window charging
    @example(case=(_EQUATOR, VehicleParams(), PvWindow(9.0, 17.0),
                   [DayStay(A, 8.0, 10.0)]))
    # window charging from a SOC already at the PV target
    @example(case=(_EQUATOR, VehicleParams(soc_initial=0.8, pv_charge_target=0.8),
                   PvWindow(9.0, 17.0), [DayStay(A, 9.0, 17.0)]))
    # discharge gaps of half, one and two dust units
    @example(case=(_EQUATOR, VehicleParams(soc_initial=0.5 + 0.5e-12 / 25.0),
                   PvWindow(9.0, 17.0), [DayStay(A, 18.0, 20.0)]))
    @example(case=(_EQUATOR, VehicleParams(soc_initial=0.5 + 1e-12 / 25.0),
                   PvWindow(9.0, 17.0), [DayStay(A, 18.0, 20.0)]))
    @example(case=(_EQUATOR, VehicleParams(soc_initial=0.5 + 2e-12 / 25.0),
                   PvWindow(9.0, 17.0), [DayStay(A, 18.0, 20.0)]))
    # a trip beyond the remaining range clamps at zero
    @example(case=(_EQUATOR, VehicleParams(range_km=0.5), PvWindow(9.0, 17.0), _FAR))
    def test_equals_the_reference_engine(self, case):
        assert _trace_repr(simulate_day, case) == _trace_repr(simulate_day_reference, case)


_DAY0 = 18506  # 2020-09-01


@st.composite
def scenarios(draw):
    """`setups` plus a UTC offset, an area index and up to four users' stays
    in time order over about three local days. Stay bounds favour local
    midnights and the window edges, and the seconds either side of them."""
    grid, params, window = draw(setups())
    off = draw(st.sampled_from([0, 8 * 3600, -5 * 3600, 19_800]))
    marks = [
        (_DAY0 + k) * DAY_S - off + round(h * 3600.0) + e
        for k in range(4)
        for h in (0.0, window.start_hour, window.end_hour)
        for e in (-1, 0, 1)
    ]
    times = st.sampled_from(marks) | st.integers(marks[0] - 3600, marks[-1] + 3600)
    cells = grid_cells(grid)
    trajectories = {}
    for uid in draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True)):
        bounds = sorted(draw(st.lists(times, max_size=20, unique=True)))
        stays = tuple(
            Stay(uid, draw(cells), a, b)
            for a, b in zip(bounds, bounds[1:])
            if draw(st.booleans())
        )
        trajectories[uid] = Trajectory(uid, stays)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(-1, 3, (grid.n_rows, grid.n_cols)).astype(np.int32)
    index = AreaIndex(grid, codes, ["A", "B", "C"])
    step = draw(st.sampled_from([1.0, 5.0, 15.0, 60.0]))
    scaling = ScalingConfig(0.03, 1, 1000, time_step_minutes=step)
    return grid, params, window, off, trajectories, index, scaling


def _bits(aggregates) -> list:
    """Every key and field of the aggregates, floats by repr and arrays by
    bytes."""
    return [
        (key, [(v.dtype.str, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
               for v in dataclasses.astuple(agg)])
        for key, agg in aggregates.items()
    ]


def _trip_drains_exactly():
    """A scenario whose one trip drops the SOC by exactly its value, to
    zero without a clamp."""
    far = CellId(19, 19)
    soc = cell_distance_m(A, far, _EQUATOR) / 1000.0 / 135.0
    traj = Trajectory("u", (
        stay("u", A, utc_dt(2020, 9, 1, 7), utc_dt(2020, 9, 1, 8)),
        stay("u", far, utc_dt(2020, 9, 1, 18), utc_dt(2020, 9, 1, 20)),
    ))
    index = AreaIndex(_EQUATOR, np.zeros((20, 20), dtype=np.int32), ["A"])
    return (_EQUATOR, VehicleParams(soc_initial=soc, soc_threshold=soc), PvWindow(9.0, 17.0),
            0, {"u": traj}, index, ScalingConfig(0.03, 1, 1000))


class TestColumnEngine:
    @settings(max_examples=300, deadline=None)
    @given(case=scenarios(), chunk=st.sampled_from([1, 2, 3, 7, 1024]))
    @example(case=_trip_drains_exactly(), chunk=1)
    def test_equals_run_scenario_and_the_oracles(self, case, chunk):
        grid, params, window, off, trajectories, index, scaling = case
        stays = StayColumns.from_trajectories(trajectories.values())
        days = day_range_of(stays, off)
        n = len(stays) * len(days)
        builder = AggregateBuilder(index, scaling)
        parts, clamped = [], 0
        for lo in range(0, n, chunk):
            events, rexc = simulate_user_days(
                stays, days, lo, min(lo + chunk, n), params, window, grid, off
            )
            builder.add_events(events)
            parts.append(events)
            clamped += rexc

        traces = list(run_scenario(trajectories, params, window, grid, off, days))
        want = [e for trace in traces for e in trace.events]
        assert list(map(repr, EventColumns.concat(parts))) == list(map(repr, want))
        assert clamped == sum(trace.range_exceeded for trace in traces)
        reference_traces = [
            simulate_day_reference(uid, day, by_day.get(day, ()), params, window, grid)
            for uid in sorted(trajectories)
            for by_day in [slice_trajectory_days(trajectories[uid], off)]
            for day in days
        ]
        reference = [e for trace in reference_traces for e in trace.events]
        assert repr(reference) == repr(want)
        assert list(map(_trace_fields, traces)) == list(map(_trace_fields, reference_traces))
        aggregates, unassigned = aggregate_per_event(index, scaling, want)
        assert _bits(builder.aggregates()) == _bits(aggregates)
        assert builder.events_unassigned == unassigned

    def test_stays_out_of_time_order_keep_their_order_within_a_day(self, window, grid):
        params = VehicleParams(soc_initial=0.9)
        late = stay("u", A, utc_dt(2020, 9, 2, 18), utc_dt(2020, 9, 2, 19))
        early = stay("u", B, utc_dt(2020, 9, 1, 18), utc_dt(2020, 9, 1, 19))
        traj = Trajectory("u", (late, early))
        stays = StayColumns.from_trajectories([traj])
        days = day_range_of(stays, 0)
        events, _ = simulate_user_days(stays, days, 0, 2, params, window, grid, 0)
        want = [e for t in run_scenario({"u": traj}, params, window, grid, 0) for e in t.events]
        assert repr(list(events)) == repr(want) and len(want) == 2

    def test_overlapping_stays_rejected_like_simulate_day(self, params, window, grid):
        traj = Trajectory("u", (
            stay("u", A, utc_dt(2020, 9, 1, 10), utc_dt(2020, 9, 1, 12)),
            stay("u", B, utc_dt(2020, 9, 1, 11), utc_dt(2020, 9, 1, 13)),
        ))
        stays = StayColumns.from_trajectories([traj])
        days = day_range_of(stays, 0)
        with pytest.raises(InvalidInputError, match="non-overlapping"):
            list(run_scenario({"u": traj}, params, window, grid, 0))
        with pytest.raises(InvalidInputError, match="non-overlapping"):
            simulate_user_days(stays, days, 0, 1, params, window, grid, 0)

    @pytest.mark.parametrize("days", [[18506, 18505], [18506, 18506]])
    def test_days_out_of_order_rejected(self, params, window, grid, days):
        traj = Trajectory("u", (stay("u", A, utc_dt(2020, 9, 1, 10), utc_dt(2020, 9, 1, 12)),))
        stays = StayColumns.from_trajectories([traj])
        with pytest.raises(InvalidInputError, match="ascending"):
            list(run_scenario({"u": traj}, params, window, grid, 0, days))
        with pytest.raises(InvalidInputError, match="ascending"):
            simulate_user_days(stays, days, 0, 1, params, window, grid, 0)

    @pytest.mark.parametrize("lo, hi", [(0, 0), (-1, 1), (0, 3), (2, 1)])
    def test_user_day_range_outside_the_scenario_rejected(self, params, window, grid, lo, hi):
        traj = Trajectory("u", (stay("u", A, utc_dt(2020, 9, 1, 10), utc_dt(2020, 9, 2, 12)),))
        stays = StayColumns.from_trajectories([traj])
        with pytest.raises(InvalidInputError):
            simulate_user_days(stays, day_range_of(stays, 0), lo, hi, params, window, grid, 0)


def test_event_columns_round_trip():
    events = [
        ChargeEvent("b", 18506, A, Regime.DISCHARGE, 18.0, 19.5, 6.6, 9.9),
        ChargeEvent("a", -3, B, Regime.PV_CHARGE, 9.0, 10.0, 1e-9, 1e-9),
        ChargeEvent("b", 18507, B, Regime.NONPV_CHARGE, 0.0, 24.0, 6.6, 0.1),
    ]
    columns = EventColumns.from_events(events)
    assert list(columns) == events and len(columns) == 3
    both = EventColumns.concat([columns, EventColumns.from_events(events[:1]), columns])
    assert list(both) == events + events[:1] + events
    assert list(EventColumns.concat([])) == [] and len(EventColumns.from_events([])) == 0

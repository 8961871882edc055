"""Area aggregation: energy supply scaling, peak demand, sizing, PV support."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2grid import (
    AggregateBuilder,
    CellId,
    ChargeEvent,
    EventColumns,
    GridSpec,
    InvalidConfigError,
    InvalidInputError,
    Regime,
    ScalingConfig,
    UNASSIGNED,
    build_area_index,
    make_rect_area,
    peak_density_and_sizing,
    pv_sufficiency,
)
from conftest import epoch_day
from oracles import aggregate_per_event

DAY = epoch_day(2020, 9, 1)
IN_CELL = CellId(1, 1)  # covered by area A below
OUT_CELL = CellId(8, 8)  # outside every area


@pytest.fixture
def index(grid):
    lat1, lon1 = grid.unproject(1000.0, 1000.0)
    area = make_rect_area("A", grid.origin_lat, lat1, grid.origin_lon, lon1,
                          area_m2=1_000_000.0)
    return build_area_index(grid, [area])


def paper_scaling(**overrides) -> ScalingConfig:
    # delta 0.03 over a 72 000-of-5 500 000 sample: delta/s = 2.2916666...
    kwargs = dict(ev_penetration=0.03, observed_users=72_000, population=5_500_000)
    kwargs.update(overrides)
    return ScalingConfig(**kwargs)


def aggregate(events, index, scaling):
    builder = AggregateBuilder(index, scaling)
    builder.add_events(EventColumns.from_events(events))
    return builder.aggregates()


def ev(cell=IN_CELL, regime=Regime.DISCHARGE, start=18.0, end=19.0, power=6.6,
       uid="u", day=DAY) -> ChargeEvent:
    return ChargeEvent(uid, day, cell, regime, start, end, power,
                       power * (end - start))


class TestScalingConfig:
    def test_scale_factor_value(self):
        s = paper_scaling()
        assert s.market_share == pytest.approx(72_000 / 5_500_000, rel=1e-12)
        assert s.scale == pytest.approx(2.2916666666666666, rel=1e-12)

    def test_zero_users_rejected(self):
        with pytest.raises(InvalidConfigError):
            paper_scaling(observed_users=0)

    def test_delta_out_of_range_rejected(self):
        with pytest.raises(InvalidConfigError):
            paper_scaling(ev_penetration=1.5)

    def test_time_step_must_divide_day(self):
        with pytest.raises(InvalidConfigError):
            paper_scaling(time_step_minutes=7.0)
        # 24 h / 1e13 min rounds to zero steps
        with pytest.raises(InvalidConfigError):
            paper_scaling(time_step_minutes=1e13)
        # divide 24 h, but HH:MM step labels cannot name their starts
        for minutes in (0.5, 7.5):
            with pytest.raises(InvalidConfigError):
                paper_scaling(time_step_minutes=minutes)


class TestAreaEnergySupply:
    def test_ten_kwh_discharge_scales_to_22_92(self, index):
        # 10 kWh * 0.03 / (72000/5.5e6) = 22.91666... kWh
        events = [ev(start=18.0, end=18.0 + 10.0 / 6.6)]
        out = aggregate(events, index, paper_scaling())
        assert out[("A", DAY)].e_ev_kwh == pytest.approx(22.916666666666664, abs=1e-9)

    def test_identity_scaling_returns_raw_sum(self, index):
        # delta == s makes the factor exactly one
        scaling = ScalingConfig(ev_penetration=0.5, observed_users=50, population=100)
        events = [ev(), ev(start=20.0, end=21.5)]
        out = aggregate(events, index, scaling)
        assert out[("A", DAY)].e_ev_kwh == pytest.approx(6.6 * 2.5, rel=1e-12)

    def test_area_without_discharge_is_absent_or_zero(self, index):
        events = [ev(regime=Regime.PV_CHARGE, start=10.0, end=11.0)]
        out = aggregate(events, index, paper_scaling())
        assert ("A", DAY) not in out or out[("A", DAY)].e_ev_kwh == 0.0

    def test_unmapped_cells_collect_under_reserved_area(self, index):
        events = [ev(cell=OUT_CELL)]
        out = aggregate(events, index, paper_scaling())
        assert (UNASSIGNED, DAY) in out
        assert out[(UNASSIGNED, DAY)].e_ev_kwh > 0


class TestAreaPeakDemand:
    def test_full_step_at_rated_power_scales_to_15_125(self, index):
        # 6.6 kW for a full 15-minute step, delta/s = 2.2916666 -> 15.125 kW
        events = [ev(regime=Regime.PV_CHARGE, start=10.0, end=10.25)]
        out = aggregate(events, index, paper_scaling())
        agg = out[("A", DAY)]
        assert agg.p_ev_peak_kw == pytest.approx(15.125, abs=1e-9)
        assert agg.peak_step == int(10.0 * 4)

    def test_partial_step_is_time_averaged(self, index):
        # charging 09:00-09:05 in 15-minute steps: 6.6 * 5/15 = 2.2 kW unscaled
        scaling = ScalingConfig(ev_penetration=0.5, observed_users=50, population=100)
        events = [ev(regime=Regime.NONPV_CHARGE, start=9.0, end=9.0 + 5.0 / 60.0)]
        out = aggregate(events, index, scaling)
        agg = out[("A", DAY)]
        assert agg.demand_profile[36] == pytest.approx(2.2, abs=1e-9)
        assert agg.p_ev_peak_kw == pytest.approx(2.2, abs=1e-9)

    def test_disjoint_users_do_not_sum_into_the_peak(self, index):
        scaling = ScalingConfig(ev_penetration=0.5, observed_users=50, population=100)
        events = [
            ev(uid="a", regime=Regime.PV_CHARGE, start=10.0, end=10.25),
            ev(uid="b", regime=Regime.PV_CHARGE, start=12.0, end=12.25),
        ]
        out = aggregate(events, index, scaling)
        assert out[("A", DAY)].p_ev_peak_kw == pytest.approx(6.6, abs=1e-12)

    def test_simultaneous_users_do_sum(self, index):
        scaling = ScalingConfig(ev_penetration=0.5, observed_users=50, population=100)
        events = [
            ev(uid="a", regime=Regime.PV_CHARGE, start=10.0, end=10.25),
            ev(uid="b", regime=Regime.PV_CHARGE, start=10.0, end=10.25),
        ]
        out = aggregate(events, index, scaling)
        assert out[("A", DAY)].p_ev_peak_kw == pytest.approx(13.2, abs=1e-12)

    def test_discharge_does_not_enter_the_demand_profile(self, index):
        events = [ev(regime=Regime.DISCHARGE, start=20.0, end=21.0)]
        out = aggregate(events, index, paper_scaling())
        assert out[("A", DAY)].p_ev_peak_kw == 0.0

    def test_peak_tie_resolves_to_earliest_step(self, index):
        scaling = ScalingConfig(ev_penetration=0.5, observed_users=50, population=100)
        events = [
            ev(regime=Regime.PV_CHARGE, start=12.0, end=12.25),
            ev(regime=Regime.PV_CHARGE, start=10.0, end=10.25),
        ]
        out = aggregate(events, index, scaling)
        assert out[("A", DAY)].peak_step == 40


class TestLinearityAndConservation:
    def test_doubling_delta_doubles_everything(self, index):
        events = [
            ev(start=18.0, end=19.5),
            ev(regime=Regime.PV_CHARGE, start=10.0, end=11.2),
            ev(cell=OUT_CELL, regime=Regime.NONPV_CHARGE, start=6.0, end=6.8),
        ]
        lo = AggregateBuilder(index, paper_scaling(ev_penetration=0.03))
        hi = AggregateBuilder(index, paper_scaling(ev_penetration=0.06))
        lo.add_events(EventColumns.from_events(events))
        hi.add_events(EventColumns.from_events(events))
        a, b = lo.aggregates(), hi.aggregates()
        assert set(a) == set(b)
        for key in a:
            assert b[key].e_ev_kwh == 2.0 * a[key].e_ev_kwh
            assert b[key].p_ev_peak_kw == 2.0 * a[key].p_ev_peak_kw
            assert b[key].peak_step == a[key].peak_step
            np.testing.assert_array_equal(
                b[key].demand_profile, 2.0 * a[key].demand_profile
            )

    def test_unscaled_discharge_is_conserved_across_areas(self, index):
        rng = np.random.default_rng(10)
        scaling = paper_scaling()
        events = []
        total = 0.0
        for _ in range(200):
            s = float(rng.uniform(0, 23))
            e = s + float(rng.uniform(0.05, 1.0))
            cell = CellId(int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            event = ev(cell=cell, start=s, end=min(e, 24.0))
            events.append(event)
            total += event.energy_kwh
        out = aggregate(events, index, scaling)
        supply = sum(agg.e_ev_kwh for agg in out.values())
        assert supply / scaling.scale == pytest.approx(total, rel=1e-9)

    def test_peak_of_each_area_is_at_least_the_mean(self, index):
        rng = np.random.default_rng(11)
        events = [
            ev(
                regime=Regime.PV_CHARGE,
                start=float(rng.uniform(0, 23)),
                end=float(rng.uniform(0, 1)) + 23.0,
                cell=CellId(int(rng.integers(0, 20)), int(rng.integers(0, 20))),
            )
            for _ in range(50)
        ]
        out = aggregate(events, index, paper_scaling())
        for agg in out.values():
            assert agg.p_ev_peak_kw >= float(np.mean(agg.demand_profile)) - 1e-12

    def test_refining_time_step_never_decreases_peak(self, index):
        rng = np.random.default_rng(12)
        events = []
        for _ in range(60):
            s = float(rng.uniform(0, 23.5))
            events.append(
                ev(regime=Regime.PV_CHARGE, start=s, end=s + float(rng.uniform(0.01, 0.5)))
            )
        coarse = aggregate(events, index, paper_scaling(time_step_minutes=15.0))
        fine = aggregate(events, index, paper_scaling(time_step_minutes=1.0))
        for key in coarse:
            assert fine[key].p_ev_peak_kw >= coarse[key].p_ev_peak_kw - 1e-9


def _bits(agg) -> list:
    """Every field of an AreaAggregate, floats by repr and arrays by bytes."""
    return [
        (v.dtype.str, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
        for v in dataclasses.astuple(agg)
    ]


def _two_area_index():
    grid = GridSpec(origin_lat=0.0, origin_lon=0.0, cell_size_m=250.0, n_rows=20, n_cols=20)
    lat1, lon1 = grid.unproject(1000.0, 1000.0)
    _, lon2 = grid.unproject(2000.0, 1000.0)
    return build_area_index(grid, [
        make_rect_area("A", grid.origin_lat, lat1, grid.origin_lon, lon1, area_m2=1e6),
        make_rect_area("B", grid.origin_lat, lat1, lon1, lon2, area_m2=1e6),
    ])


TWO_AREAS = _two_area_index()
# in area A, in area B, outside every area
REDUCTION_CELLS = (IN_CELL, CellId(1, 5), OUT_CELL)


class TestBatchReduction:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), step_minutes=st.sampled_from([1.0, 5.0]))
    def test_equals_the_per_event_loop(self, data, step_minutes):
        scaling = paper_scaling(time_step_minutes=step_minutes)
        dt = 24.0 / scaling.steps_per_day
        # on a step boundary or at any second; lengths of zero, of whole
        # steps or of up to a day, so that some events end past 24 h
        seconds = st.integers(0, 86_400).map(lambda s: s / 3600.0)
        hours = st.one_of(st.integers(0, scaling.steps_per_day).map(lambda k: k * dt), seconds)
        lengths = st.one_of(st.just(0.0), st.integers(1, 60).map(lambda k: k * dt), seconds)
        # half the events share one area-day, so that profile steps sum
        # several terms and a change of summation order shows
        slots = st.one_of(st.just((IN_CELL, DAY)),
                          st.tuples(st.sampled_from(REDUCTION_CELLS),
                                    st.sampled_from([DAY, DAY + 1])))
        event = st.builds(
            lambda slot, regime, start, length, power, energy: ChargeEvent(
                "u", slot[1], slot[0], regime, start, start + length, power, energy),
            slots, st.sampled_from(list(Regime)), hours, lengths,
            st.floats(0.1, 22.0), st.floats(0.0, 60.0),
        )
        events = data.draw(st.lists(event, min_size=8, max_size=60))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(events)), max_size=4)))
        batches = [events[a:b] for a, b in zip([0, *cuts], [*cuts, len(events)])]

        builder = AggregateBuilder(TWO_AREAS, scaling)
        for batch in batches:
            builder.add_events(EventColumns.from_events(batch))
        got = builder.aggregates()
        want, unassigned = aggregate_per_event(TWO_AREAS, scaling, events)
        assert list(got) == list(want)
        for key in want:
            assert _bits(got[key]) == _bits(want[key])
        assert builder.events_unassigned == unassigned

    def test_profile_steps_sum_in_event_order(self):
        # three events that start one step apart and end together, so the
        # last step sums 1 kW and then two 1e-16 kW terms, each lost against
        # the 1 kW; in the reverse order the two small terms add up first
        scaling = paper_scaling(time_step_minutes=5.0)
        dt = 24.0 / scaling.steps_per_day
        events = [ev(regime=Regime.PV_CHARGE, start=k * dt, end=3 * dt, power=power)
                  for k, power in enumerate((1.0, 1e-16, 1e-16))]
        builder = AggregateBuilder(TWO_AREAS, scaling)
        builder.add_events(EventColumns.from_events(events))
        (key, got), = builder.aggregates().items()
        want = aggregate_per_event(TWO_AREAS, scaling, events)[0][key]
        reverse = aggregate_per_event(TWO_AREAS, scaling, events[::-1])[0][key]
        assert reverse.demand_profile[2] != want.demand_profile[2]
        assert _bits(got) == _bits(want)

    def test_cell_outside_the_grid_leaves_the_builder_as_it_was(self, index):
        builder = AggregateBuilder(index, paper_scaling())
        builder.add_events(EventColumns.from_events([ev(regime=Regime.PV_CHARGE)]))
        before = builder.aggregates()
        with pytest.raises(InvalidInputError):
            builder.add_events(EventColumns.from_events(
                [ev(), ev(cell=OUT_CELL), ev(cell=CellId(99, 99))]
            ))
        after = builder.aggregates()
        assert list(after) == list(before)
        assert all(_bits(after[k]) == _bits(before[k]) for k in before)
        assert builder.events_unassigned == 0


class TestSizing:
    def test_reference_density_implies_3636_points_per_km2(self):
        # density 24 W/m2 at 6.6 kW per point: 24/6.6 * 1000 = 3636.36 /km2,
        # within 10% of the rounded published figure of ~3800
        sizing = peak_density_and_sizing(
            peak_kw=24_000.0, area_m2=1_000_000.0, charge_power_kw=6.6
        )
        assert sizing.density_w_per_m2 == pytest.approx(24.0, rel=1e-12)
        assert sizing.points_per_km2 == pytest.approx(24.0 / 6.6 * 1000.0, rel=1e-9)
        assert abs(sizing.points_per_km2 - 3800.0) / 3800.0 < 0.10

    def test_single_charger_case(self):
        sizing = peak_density_and_sizing(6.6, 1_000_000.0, 6.6)
        assert sizing.points_abs == 1
        assert sizing.points_per_km2 == pytest.approx(1.0, rel=1e-12)

    def test_zero_peak(self):
        sizing = peak_density_and_sizing(0.0, 1_000_000.0, 6.6)
        assert sizing == (0.0, 0, 0.0)

    def test_zero_area_rejected(self):
        with pytest.raises(InvalidInputError):
            peak_density_and_sizing(1.0, 0.0, 6.6)


class TestPvSufficiency:
    def test_reference_point_is_20_w_per_m2(self):
        # 0.2 * 0.25 * 400 = 20
        support = pv_sufficiency(0.2, 0.25, 400.0)
        assert support.p_pv_w_per_m2 == pytest.approx(20.0, abs=1e-12)

    def test_zero_panel_fraction_gives_zero(self):
        assert pv_sufficiency(0.2, 0.0, 400.0).p_pv_w_per_m2 == 0.0

    def test_deficit_flagged_when_density_exceeds_potential(self):
        support = pv_sufficiency(0.2, 0.25, 400.0, {"core": 24.0, "edge": 3.0})
        assert support.deficit_by_area == {"core": True, "edge": False}

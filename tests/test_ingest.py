"""Stay extraction, trajectory assembly, and the activity filter."""

from __future__ import annotations

import csv
import gc
import random
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from v2grid import (
    CellId,
    GridSpec,
    IngestConfig,
    IngestStats,
    InvalidInputError,
    ChargeEvent,
    LocationRecord,
    Records,
    Regime,
    Stay,
    Trajectory,
    build_trajectory,
    extract_stays,
    filter_active_users,
    ingest_trajectories,
    read_records_csv,
    write_records_csv,
    write_stays_csv,
)
from v2grid.engine import write_events_csv
from v2grid import ingest
from v2grid.ingest import format_epoch, local_day_span
from conftest import ping, stay, utc_dt
from oracles import ingest_per_user, read_records_per_row

X = CellId(2, 2)
Y = CellId(5, 7)


def extract(recs, cfg, stats=None):
    return extract_stays(Records.from_records(recs), cfg, stats)


class TestExtractStays:
    def test_three_pings_in_one_cell_make_one_stay(self, grid, ingest_cfg):
        recs = [
            ping("u", utc_dt(2020, 9, 1, 8, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 8, 40), grid, X),
            ping("u", utc_dt(2020, 9, 1, 9, 30), grid, X),
        ]
        stays = extract(recs, ingest_cfg)
        assert stays == [stay("u", X, utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 9, 30))]

    def test_run_shorter_than_tau_is_dropped(self, grid, ingest_cfg):
        recs = [
            ping("u", utc_dt(2020, 9, 1, 10, 0), grid, Y),
            ping("u", utc_dt(2020, 9, 1, 10, 30), grid, Y),
        ]
        assert extract(recs, ingest_cfg) == []

    def test_revisit_with_dropped_middle_run_stays_split(self, grid, ingest_cfg):
        # X(08:00-09:30), Y(10:00-10:30) dropped, X(11:00-12:30): the two X
        # visits are separated by real travel and must not merge
        recs = [
            ping("u", utc_dt(2020, 9, 1, 8, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 9, 30), grid, X),
            ping("u", utc_dt(2020, 9, 1, 10, 0), grid, Y),
            ping("u", utc_dt(2020, 9, 1, 10, 30), grid, Y),
            ping("u", utc_dt(2020, 9, 1, 11, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 12, 30), grid, X),
        ]
        stays = extract(recs, ingest_cfg)
        assert stays == [
            stay("u", X, utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 9, 30)),
            stay("u", X, utc_dt(2020, 9, 1, 11, 0), utc_dt(2020, 9, 1, 12, 30)),
        ]

    def test_zero_gap_same_cell_stays_merge(self, grid, ingest_cfg):
        # the zero-duration Y run at 09:00 is dropped, leaving two X stays
        # that touch exactly; those merge
        recs = [
            ping("u", utc_dt(2020, 9, 1, 8, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 9, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 9, 0), grid, Y),
            ping("u", utc_dt(2020, 9, 1, 9, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 10, 30), grid, X),
        ]
        stays = extract(recs, ingest_cfg)
        assert stays == [stay("u", X, utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 10, 30))]

    def test_unsorted_input_is_sorted_by_time(self, grid, ingest_cfg):
        recs = [
            ping("u", utc_dt(2020, 9, 1, 9, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 8, 0), grid, X),
        ]
        assert extract(recs, ingest_cfg) == [
            stay("u", X, utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 9, 0))
        ]

    def test_interleaved_users_are_split_and_sorted_by_user(self, grid, ingest_cfg):
        recs = [
            ping("v", utc_dt(2020, 9, 1, 8, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 8, 30), grid, X),
            ping("v", utc_dt(2020, 9, 1, 9, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 9, 30), grid, X),
        ]
        assert extract(recs, ingest_cfg) == [
            stay("u", X, utc_dt(2020, 9, 1, 8, 30), utc_dt(2020, 9, 1, 9, 30)),
            stay("v", X, utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 9, 0)),
        ]

    def test_same_second_pings_order_by_full_timestamp(self, grid, ingest_cfg):
        # in file order X 07:00, X 08:00:00.9, Y 08:00:00.1, Y 09:00 would give
        # two one-hour stays; in time order the cells alternate and none lasts
        recs = [
            ping("u", utc_dt(2020, 9, 1, 7, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 8, 0).replace(microsecond=900_000), grid, X),
            ping("u", utc_dt(2020, 9, 1, 8, 0).replace(microsecond=100_000), grid, Y),
            ping("u", utc_dt(2020, 9, 1, 9, 0), grid, Y),
        ]
        assert extract(recs, ingest_cfg) == []

    def test_sub_second_timestamps_are_truncated(self, grid, ingest_cfg):
        # 08:00:00.9 and 09:00:00.5 count as 08:00:00 and 09:00:00, so the run
        # lasts tau in whole seconds although 3599.6 s passed between them
        recs = [
            ping("u", utc_dt(2020, 9, 1, 8, 0).replace(microsecond=900_000), grid, X),
            ping("u", utc_dt(2020, 9, 1, 9, 0).replace(microsecond=500_000), grid, X),
        ]
        assert extract(recs, ingest_cfg) == [
            stay("u", X, utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 9, 0))
        ]

    def test_out_of_grid_pings_dropped_and_counted(self, grid, ingest_cfg):
        outside = LocationRecord("u", utc_dt(2020, 9, 1, 8, 30), -5.0, -5.0)
        recs = [
            ping("u", utc_dt(2020, 9, 1, 8, 0), grid, X),
            outside,
            ping("u", utc_dt(2020, 9, 1, 9, 30), grid, X),
        ]
        stats = IngestStats()
        stays = extract(recs, ingest_cfg, stats)
        assert stats.records_out_of_grid == 1
        assert len(stays) == 1 and stays[0].duration_s == 90 * 60


def _random_records(grid, rng, n=120, cells=(X, Y, CellId(0, 0))):
    t = utc_dt(2020, 9, 1, 0, 0)
    recs = []
    for _ in range(n):
        t += timedelta(minutes=int(rng.integers(5, 40)))
        recs.append(ping("u", t, grid, cells[int(rng.integers(0, len(cells)))]))
    return recs


class TestExtractProperties:
    def test_every_stay_at_least_tau_and_disjoint(self, grid, ingest_cfg):
        rng = np.random.default_rng(3)
        for _ in range(20):
            stays = extract(_random_records(grid, rng), ingest_cfg)
            for s in stays:
                assert s.duration_s >= ingest_cfg.tau_s
            for a, b in zip(stays, stays[1:]):
                assert a.departure <= b.arrival

    def test_shuffled_then_sorted_input_gives_identical_stays(self, grid, ingest_cfg):
        rng = np.random.default_rng(4)
        recs = _random_records(grid, rng)
        baseline = extract(recs, ingest_cfg)
        shuffled = recs[:]
        random.Random(9).shuffle(shuffled)
        shuffled.sort(key=lambda r: r.timestamp)
        assert extract(shuffled, ingest_cfg) == baseline

    def test_dropping_a_ping_never_lengthens_surviving_stays(self, grid, ingest_cfg):
        # qualified form: removing the sole ping of a cell-run can merge its
        # same-cell neighbours into one longer stay, so those drops are skipped
        rng = np.random.default_rng(5)
        recs = _random_records(grid, rng, n=60)
        baseline_total = max(
            (s.duration_s for s in extract(recs, ingest_cfg)), default=0
        )
        for i in range(len(recs)):
            is_sole_run_member = (
                (i == 0 or recs[i - 1].lat != recs[i].lat or recs[i - 1].lon != recs[i].lon)
                and (
                    i == len(recs) - 1
                    or recs[i + 1].lat != recs[i].lat
                    or recs[i + 1].lon != recs[i].lon
                )
            )
            if is_sole_run_member:
                continue
            reduced = recs[:i] + recs[i + 1 :]
            longest = max(
                (s.duration_s for s in extract(reduced, ingest_cfg)), default=0
            )
            assert longest <= baseline_total


class TestBuildTrajectory:
    def test_empty_input(self):
        assert build_trajectory([]) == Trajectory(user_id="", stays=())

    def test_out_of_order_stays_are_sorted(self):
        s1 = stay("u", X, utc_dt(2020, 9, 1, 12, 0), utc_dt(2020, 9, 1, 14, 0))
        s2 = stay("u", Y, utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 10, 0))
        traj = build_trajectory([s1, s2])
        assert [s.cell for s in traj.stays] == [Y, X]

    def test_same_cell_gap_below_tau_merges(self):
        # 15 minute gap < 1 h merges into 09:00-12:00
        s1 = stay("u", X, utc_dt(2020, 9, 1, 9, 0), utc_dt(2020, 9, 1, 10, 30))
        s2 = stay("u", X, utc_dt(2020, 9, 1, 10, 45), utc_dt(2020, 9, 1, 12, 0))
        traj = build_trajectory([s1, s2], tau_s=3600.0)
        assert traj.stays == (
            stay("u", X, utc_dt(2020, 9, 1, 9, 0), utc_dt(2020, 9, 1, 12, 0)),
        )

    def test_same_cell_gap_at_tau_stays_split(self):
        s1 = stay("u", X, utc_dt(2020, 9, 1, 9, 0), utc_dt(2020, 9, 1, 10, 30))
        s2 = stay("u", X, utc_dt(2020, 9, 1, 11, 30), utc_dt(2020, 9, 1, 13, 0))
        traj = build_trajectory([s1, s2], tau_s=3600.0)
        assert len(traj.stays) == 2

    def test_overlapping_stays_rejected(self):
        s1 = stay("u", X, utc_dt(2020, 9, 1, 9, 0), utc_dt(2020, 9, 1, 11, 0))
        s2 = stay("u", Y, utc_dt(2020, 9, 1, 10, 0), utc_dt(2020, 9, 1, 12, 0))
        with pytest.raises(InvalidInputError):
            build_trajectory([s1, s2])


def _traj_with_days(uid: str, days: list[int]) -> Trajectory:
    stays = tuple(
        stay(uid, X, utc_dt(2020, 9, d, 10, 0), utc_dt(2020, 9, d, 12, 0)) for d in days
    )
    return Trajectory(uid, stays)


class TestFilterActiveUsers:
    def test_five_consecutive_days_retained(self, ingest_cfg):
        trajs = {"u": _traj_with_days("u", [1, 2, 3, 4, 5])}
        assert filter_active_users(trajs, ingest_cfg) == {"u"}

    def test_run_of_four_is_dropped(self, ingest_cfg):
        trajs = {"u": _traj_with_days("u", [1, 2, 4, 5, 6, 7])}
        assert filter_active_users(trajs, ingest_cfg) == set()

    def test_min_days_one_keeps_any_user_with_a_stay(self, grid):
        cfg = IngestConfig(min_consecutive_days=1, grid=grid, utc_offset_hours=0.0)
        trajs = {"u": _traj_with_days("u", [12]), "v": _traj_with_days("v", [3])}
        assert filter_active_users(trajs, cfg) == {"u", "v"}

    def test_overnight_stay_counts_for_both_days(self, grid):
        cfg = IngestConfig(min_consecutive_days=2, grid=grid, utc_offset_hours=0.0)
        overnight = Trajectory(
            "u", (stay("u", X, utc_dt(2020, 9, 1, 23, 0), utc_dt(2020, 9, 2, 1, 30)),)
        )
        assert filter_active_users({"u": overnight}, cfg) == {"u"}

    def test_local_timezone_shifts_day_boundaries(self, grid):
        # 17:00 UTC on Sep 1 is already Sep 2 at UTC+8
        cfg = IngestConfig(min_consecutive_days=1, grid=grid, utc_offset_hours=8.0)
        traj = Trajectory(
            "u", (stay("u", X, utc_dt(2020, 9, 1, 17, 0), utc_dt(2020, 9, 1, 19, 0)),)
        )
        assert filter_active_users({"u": traj}, cfg) == {"u"}
        s = traj.stays[0]
        d0, d1 = local_day_span(s.arrival, s.departure, cfg.utc_offset_s)
        assert d0 == d1 == (utc_dt(2020, 9, 2).date() - utc_dt(1970, 1, 1).date()).days


class TestLocalDaySpan:
    @pytest.mark.parametrize(
        "arrival, departure, offset_h, span",
        [
            ((1, 10), (1, 12), 0, (0, 0)),
            ((1, 23), (2, 0), 0, (0, 0)),  # ends exactly at midnight
            ((1, 23), (2, 0, 0, 1), 0, (0, 1)),  # one second past midnight
            ((1, 10), (1, 10), 0, (0, 0)),  # zero length: arrival day
            ((1, 15), (3, 17), 8, (0, 3)),  # 23:00 Sep 1 to 01:00 Sep 4 local
        ],
    )
    def test_span_in_days_since_sep_1(self, arrival, departure, offset_h, span):
        day0 = (utc_dt(2020, 9, 1).date() - utc_dt(1970, 1, 1).date()).days
        s = stay("u", X, utc_dt(2020, 9, *arrival), utc_dt(2020, 9, *departure))
        d0, d1 = local_day_span(s.arrival, s.departure, offset_h * 3600)
        assert (d0 - day0, d1 - day0) == span


class TestCsv:
    def test_round_trip_and_skipped_rows(self, tmp_path, grid):
        recs = [
            ping("u1", utc_dt(2020, 9, 1, 8, 0), grid, X),
            ping("u2", utc_dt(2020, 9, 1, 9, 0), grid, Y),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        with open(path, "a") as fh:
            fh.write("u3,not-a-time,1.0,2.0\n")
            fh.write("u3,2020-09-01T08:00:00Z,91.0,2.0\n")  # latitude out of range
            fh.write("u3,2020-09-01T08:00:00Z,1.0\n")  # short row
        records, skipped = read_records_csv(path)
        assert skipped == 3
        assert set(records.user_ids) == {"u1", "u2"}
        u1 = records.user == records.user_ids.index("u1")
        assert records.t[u1][0] == utc_dt(2020, 9, 1, 8, 0).timestamp()

    @pytest.mark.parametrize(
        "stamp, epoch",
        [
            ("2020-09-01T08:00:00Z", 1598947200),
            ("2020-09-01T16:00:00+08:00", 1598947200),
            ("2020-09-01T08:00:00", 1598947200),  # naive means UTC
            ("2020-09-01T08:00:00.9Z", 1598947200),  # floored to the second
            ("1969-12-31T23:59:59.5Z", -1),  # floored, not truncated to 0
            ("9999-12-31T23:59:59.999999Z", 253402300799),  # no float rounding up
            ("2020-02-29T23:59:59Z", 1583020799),
            ("0001-01-01T00:00:00Z", -62135596800),
            ("2021-02-29T00:00:00Z", None),
            ("2020-13-45T99:00:00Z", None),
            ("0000-01-01T00:00:00Z", None),  # numpy would read year 0
            ("+2020-09-01T08:00:00", None),  # numpy would read a signed year
            ("2020-09-01T08:00:00z", None),
            ("not-a-time", None),
        ],
    )
    def test_timestamp_forms(self, tmp_path, stamp, epoch):
        path = tmp_path / "records.csv"
        path.write_text(f"user_id,timestamp,lat,lon\nu,{stamp},1.0,2.0\n")
        records, skipped = read_records_csv(path)
        if epoch is None:
            assert (len(records), skipped) == (0, 1)
        else:
            assert (records.t.tolist(), skipped) == ([epoch], 0)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_read_restores_garbage_collector_state(self, tmp_path, enabled):
        path = tmp_path / "records.csv"
        path.write_text("user_id,timestamp,lat,lon\nu,2020-09-01T08:00:00Z,1.0,2.0\n")
        try:
            (gc.enable if enabled else gc.disable)()
            read_records_csv(path)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(InvalidInputError):
            read_records_csv(path)

    def test_stays_csv_columns(self, tmp_path):
        path = tmp_path / "stays.csv"
        write_stays_csv(
            [stay("u", X, utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 9, 30))], path
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "user_id,cell_row,cell_col,arrival,departure"
        assert lines[1] == "u,2,2,2020-09-01T08:00:00Z,2020-09-01T09:30:00Z"

    def test_stays_csv_pads_years_below_1000(self, tmp_path):
        path = tmp_path / "stays.csv"
        write_stays_csv(
            [stay("u", X, utc_dt(999, 5, 1, 0, 0), utc_dt(999, 5, 1, 1, 30))], path
        )
        assert path.read_text().splitlines()[1] == (
            "u,2,2,0999-05-01T00:00:00Z,0999-05-01T01:30:00Z"
        )


EPOCH_DATE = date(1970, 1, 1)
FIRST_DAY = (date(1, 1, 1) - EPOCH_DATE).days
LAST_DAY = (date(9999, 12, 31) - EPOCH_DATE).days


class TestOutputTimeText:
    """Days and instants in the output files, against the `date` and
    `datetime` rendering the writers used before days became ints."""

    @staticmethod
    def old_day_label(day: int) -> str:
        return (EPOCH_DATE + timedelta(days=day)).isoformat()

    @staticmethod
    def old_local_instant(day: int, hour: float) -> str:
        base = datetime.combine(EPOCH_DATE + timedelta(days=day), time(0, 0))
        return (base + timedelta(seconds=round(hour * 3600.0))).isoformat()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        spans=st.lists(
            st.tuples(
                st.integers(FIRST_DAY, LAST_DAY),
                st.floats(0.0, 24.0),
                st.floats(0.0, 24.0),
            ),
            min_size=1, max_size=5,
        )
    )
    def test_day_labels_and_event_instants(self, tmp_path, spans):
        events = [
            ChargeEvent("u", day, X, Regime.DISCHARGE, min(a, b), max(a, b), 6.6, 1.0)
            for day, a, b in spans
        ]
        path = tmp_path / "events.csv"
        try:
            want = [
                (self.old_day_label(e.day), self.old_local_instant(e.day, e.start_hour),
                 self.old_local_instant(e.day, e.end_hour))
                for e in events
            ]
        except OverflowError:  # 24:00 on 9999-12-31 falls in year 10000
            with pytest.raises(OverflowError):
                write_events_csv(events, path)
            return
        write_events_csv(events, path)
        with open(path, newline="") as fh:
            got = [(r["day"], r["start"], r["end"]) for r in csv.DictReader(fh)]
        assert got == want
        assert [format_epoch(day) for day, _a, _b in spans] == [w[0] for w in want]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        stamps=st.lists(
            st.integers(
                int(utc_dt(1, 1, 1).timestamp()), int(utc_dt(9999, 12, 31, 23, 59, 59).timestamp())
            ),
            min_size=2, max_size=10,
        )
    )
    @example(stamps=[int(utc_dt(999, 5, 1).timestamp())] * 2)
    def test_stays_csv_stamps_parse_back(self, tmp_path, stamps):
        stamps.sort()
        stays = [Stay("u", X, a, b) for a, b in zip(stamps, stamps[1:])]
        path = tmp_path / "stays.csv"
        write_stays_csv(stays, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [
            (ingest._parse_timestamp(r["arrival"]).timestamp(),
             ingest._parse_timestamp(r["departure"]).timestamp())
            for r in rows
        ] == [(s.arrival, s.departure) for s in stays]


class TestPipeline:
    def test_ingest_pipeline_counts_and_filtering(self, grid):
        cfg = IngestConfig(min_consecutive_days=2, grid=grid, utc_offset_hours=0.0)
        active = [
            ping("a", utc_dt(2020, 9, d, 8, 0) + timedelta(minutes=m), grid, X)
            for d in (1, 2)
            for m in (0, 30, 70)
        ]
        casual = [
            ping("b", utc_dt(2020, 9, 1, 8, 0) + timedelta(minutes=m), grid, Y)
            for m in (0, 30, 70)
        ]
        trajs, stats = ingest_trajectories(Records.from_records(active + casual), cfg)
        # user a pings the same cell on both days, so the run bridges the gap
        # into one long stay that overlaps two calendar days
        assert set(trajs) == {"a"}
        assert len(trajs["a"].stays) == 1
        assert stats.users_total == 2
        assert stats.users_retained == 1
        assert stats.stays_emitted == 2


# ---------------------------------------------------------------------------
# Columnar read + ingest against the per-user oracle on random CSV files
# ---------------------------------------------------------------------------

PROP_GRID = GridSpec(origin_lat=1.25, origin_lon=103.7, cell_size_m=250.0, n_rows=6, n_cols=6)
PROP_CELLS = [CellId(0, 0), CellId(0, 1), CellId(3, 4)]
DAY0 = utc_dt(2020, 9, 1)

_cell_coords = st.sampled_from(PROP_CELLS).map(
    lambda c: tuple(f"{v:.6f}" for v in PROP_GRID.cell_centroid(c))
)
_odd_coords = st.sampled_from([
    ("1.0", "2.0"),  # valid, out of grid
    ("91.0", "103.7"),  # latitude out of range
    ("1.25", "-181"),  # longitude out of range
    ("north", "103.7"),
    ("nan", "103.7"),
    ("1.2510", "inf"),
    (" 1.2505 ", "103.7005"),  # float() strips whitespace
    ("1_2", "103.7"),  # float() reads 12
])


@st.composite
def _stamp(draw, ts):
    form = draw(st.sampled_from(["Z"] * 10 + ["offset", "frac", "frac", "naive", "bad", "junk"]))
    if form == "offset":
        hours = draw(st.integers(-12, 14))
        local = ts + timedelta(hours=hours)
        return f"{local:%Y-%m-%dT%H:%M:%S}{'+' if hours >= 0 else '-'}{abs(hours):02d}:00"
    if form == "frac":
        return f"{ts:%Y-%m-%dT%H:%M:%S}.{draw(st.integers(0, 999_999)):06d}Z"
    if form == "naive":
        return f"{ts:%Y-%m-%dT%H:%M:%S}"
    if form == "bad":  # canonical-shaped or numpy-readable, rejected by fromisoformat
        return draw(st.sampled_from(["2020-13-45T99:00:00Z", "2021-02-29T00:00:00Z",
                                     "0000-01-01T00:00:00Z", "+2020-09-01T00:00:00"]))
    if form == "junk":
        return draw(st.sampled_from(["", "yesterday", "2020-09-01", "2020-09-01T08:00:00ZZ"]))
    return f"{ts:%Y-%m-%dT%H:%M:%SZ}"


@st.composite
def _visit(draw):
    """Rows of one user pinging one place about every 15 min (a candidate
    stay), some of them malformed, some in the same second as the previous
    ping."""
    uid = draw(st.sampled_from(["a", "c,d", "é", ""]))
    place = draw(st.one_of(*[_cell_coords] * 5, _odd_coords))
    # whole hours over two days, mostly a few of them, so that visits of one
    # user often share seconds
    hour = draw(st.one_of(st.sampled_from([7, 8, 9, 31, 32]), st.integers(0, 47)))
    ts = DAY0 + timedelta(hours=hour)
    rows = []
    for i in range(draw(st.integers(1, 6))):
        if i:
            ts += timedelta(seconds=draw(st.sampled_from([900, 900, 900, 0, 1])))
        row = [uid, draw(_stamp(ts)), *place]
        shape = draw(st.sampled_from(["ok"] * 12 + ["short", "long"]))
        rows.append(row[:3] if shape == "short" else row + ["x"] if shape == "long" else row)
        if draw(st.integers(0, 7)) == 0:
            # a ping elsewhere in the same second splits the run in two
            # stays that touch
            rows.append([uid, draw(_stamp(ts)), *draw(_cell_coords)])
            rows.append([uid, draw(_stamp(ts)), *place])
    return rows


class TestColumnarMatchesPerUserOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        visits=st.lists(_visit(), max_size=20),
        shuffle_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
        newline=st.sampled_from(["\n", "\r\n"]),
        chunk_rows=st.sampled_from([1, 3, 16, 65536]),
        min_days=st.sampled_from([1, 2]),
        tau_s=st.sampled_from([1800.0, 3600.0]),
    )
    def test_read_and_ingest_equal_oracle(
        self, tmp_path, visits, shuffle_seed, quoting, newline, chunk_rows, min_days, tau_s
    ):
        rows = [row for visit in visits for row in visit]
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(rows)
        path = tmp_path / "records.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, quoting=quoting, lineterminator=newline)
            writer.writerow(["user_id", "timestamp", "lat", "lon"])
            writer.writerows(rows)
        cfg = IngestConfig(tau_s=tau_s, min_consecutive_days=min_days, grid=PROP_GRID,
                           utc_offset_hours=8.0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
            records, skipped = read_records_csv(path)
        trajs, stats = ingest_trajectories(records, cfg)

        by_user, want_skipped = read_records_per_row(path)
        want_trajs, want_stats = ingest_per_user(by_user, cfg)
        assert skipped == want_skipped
        assert records.user_ids == tuple(sorted(by_user))
        assert len(records) == sum(len(v) for v in by_user.values())
        assert list(trajs.items()) == list(want_trajs.items())
        assert stats == want_stats

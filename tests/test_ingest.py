"""Stay extraction, trajectory assembly, and the activity filter."""

from __future__ import annotations

import csv
import gc
import random
import tracemalloc
from datetime import date, datetime, time, timedelta, timezone

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
    StayColumns,
    SynthConfig,
    Trajectory,
    extract_stays,
    generate,
    ingest_trajectories,
    read_records_csv,
    write_records_csv,
    write_stays_csv,
)
from v2grid.aggregate import AreaAggregate, write_area_profile_csv
from v2grid.engine import EVENTS_HEADER, REGIMES, EventColumns, write_events_csv
from v2grid import ingest
from v2grid.ingest import DAY_S, STAYS_HEADER, format_epoch, local_day_span, write_csv
from conftest import ping, stay, utc_dt
from oracles import build_trajectory, filter_active_users, ingest_per_user, read_records_per_row

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


class TestUtcOffset:
    def test_bounds_are_inclusive(self):
        assert (ingest.utc_offset_seconds(-12.0), ingest.utc_offset_seconds(14.0)) == (
            -43200, 50400,
        )

    @pytest.mark.parametrize("hours", [1e300, 1e6, 14.5, -12.5])
    def test_offset_out_of_range_rejected(self, grid, hours):
        with pytest.raises(InvalidInputError):
            IngestConfig(grid=grid, utc_offset_hours=hours)


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


def _point_text(significand: int, width: int, point: int, minus: bool) -> str:
    digits = f"{significand % 10**width:0{width}d}"
    return "-" * minus + digits[:point] + "." + digits[point:]


# float() texts the byte scan parses by template, and ones it leaves to float()
_coordinate_texts = st.one_of(
    st.builds("{0:.{1}f}".format, st.floats(-180, 180), st.integers(0, 9)),
    st.floats(-180, 180).map(repr),  # 17 significant digits
    st.builds(_point_text, st.integers(0, 10**16 - 1), st.sampled_from([15, 16]),
              st.integers(0, 3), st.booleans()),
    st.sampled_from(["-0.000000", "0", "5.", ".5", "-.5", "1e5", "+1.5", " 1.5", "1_2",
                     "nan", "inf", "", "-", ".", "1.2.3"]),
)


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
        assert records.t_us[u1][0] == utc_dt(2020, 9, 1, 8, 0).timestamp() * 1_000_000

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
            assert ((records.t_us // 1_000_000).tolist(), skipped) == ([epoch], 0)

    @pytest.mark.parametrize(
        "text, rows, skipped",
        [
            ("user_id,timestamp,lat,lon\nu,2020-09-01T08:00:00Z,1.0,2.0", 1, 0),
            ("user_id,timestamp,lat,lon\n\nu,2020-09-01T08:00:00Z,1.0,2.0\n\n\n", 1, 3),
            ("user_id,timestamp,lat,lon\n", 0, 0),
            ("user_id,timestamp,lat,lon", 0, 0),
            ("", 0, 0),
            ("user_id,timestamp,lat,lon\nu,v,2020-09-01T08:00:00Z,1.0,2.0\n", 0, 1),
            ("user_id,timestamp,lat,lon\nu,2020-09-01T16:00:00+08:00,1.0,2.0\n"
             "v,2020-09-01T08:00:00.250Z,1.0,2.0\nw,2020-09-01T08:00:00Z,1.0,2.0\n", 3, 0),
            ("user_id,timestamp,lat,lon\ru,2020-09-01T08:00:00Z,1.0,2.0\r\r", 1, 1),
            ("user_id,timestamp,lat,lon\nu\0,2020-09-01T08:00:00Z,1.0,2.0\n", 1, 0),
        ],
        ids=["last_row_without_newline", "blank_lines", "header_only",
             "header_only_without_newline", "empty", "five_fields", "mixed_stamps",
             "carriage_return_line_ends", "nul_in_id"],
    )
    def test_rows_as_csv_reader_splits_them(self, tmp_path, text, rows, skipped):
        path = tmp_path / "records.csv"
        path.write_text(text)
        records, got_skipped = read_records_csv(path)
        by_user, want_skipped = read_records_per_row(path)
        assert (len(records), got_skipped) == (rows, skipped)
        assert (sum(map(len, by_user.values())), want_skipped) == (rows, skipped)
        assert records.user_ids == tuple(sorted(by_user))
        assert (records.t_us // 1_000_000).tolist() == [1598947200] * rows

    def test_plain_file_is_read_without_csv_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "records.csv"
        path.write_text("user_id,timestamp,lat,lon\nu,2020-09-01T08:00:00Z,1.0,2.0\nx\n")
        monkeypatch.setattr(ingest, "_read_csv_rows", None)
        records, skipped = read_records_csv(path)
        assert (records.user_ids, len(records), skipped) == (("u",), 1, 1)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(_coordinate_texts, _coordinate_texts), min_size=1, max_size=30))
    def test_coordinates_equal_float_bit_for_bit(self, tmp_path, pairs):
        path = tmp_path / "records.csv"
        path.write_text("user_id,timestamp,lat,lon\n" + "".join(
            f"u,2020-09-01T08:00:00Z,{lat},{lon}\n" for lat, lon in pairs
        ))
        want = []
        for lat_text, lon_text in pairs:
            try:
                lat, lon = float(lat_text), float(lon_text)
            except ValueError:
                continue
            if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
                want.append((lat, lon))
        records, skipped = read_records_csv(path)
        assert skipped == len(pairs) - len(want)
        assert records.lat.tobytes() == np.array([w[0] for w in want]).tobytes()
        assert records.lon.tobytes() == np.array([w[1] for w in want]).tobytes()

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

    def test_collector_paused_only_while_csv_reader_reads(self, tmp_path, monkeypatch):
        path = tmp_path / "records.csv"
        path.write_text(
            "user_id,timestamp,lat,lon\n" + "u,2020-09-01T08:00:00Z,1.0,2.0\n" * 3
            + "é,2020-09-01T08:00:00Z,1.0,2.0\n", encoding="utf-8",
        )
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1)  # a block per line
        states = {"scan": [], "csv": []}
        for name, kind in (("_parse_coordinates", "scan"), ("_parse_floats", "csv")):
            real = getattr(ingest, name)
            monkeypatch.setattr(ingest, name, lambda *args, real=real, kind=kind: (
                states[kind].append(gc.isenabled()) or real(*args)
            ))
        records, skipped = read_records_csv(path)
        assert (records.user_ids, len(records), skipped) == (("u", "é"), 4, 0)
        assert states == {"scan": [True] * 6, "csv": [False] * 2}
        assert gc.isenabled()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(InvalidInputError):
            read_records_csv(path)

    def test_stays_csv_columns(self, tmp_path):
        path = tmp_path / "stays.csv"
        write_stays_csv(StayColumns.from_trajectories([
            Trajectory("u", (stay("u", X, utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 9, 30)),))
        ]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "user_id,cell_row,cell_col,arrival,departure"
        assert lines[1] == "u,2,2,2020-09-01T08:00:00Z,2020-09-01T09:30:00Z"

    def test_stays_csv_pads_years_below_1000(self, tmp_path):
        path = tmp_path / "stays.csv"
        write_stays_csv(StayColumns.from_trajectories([
            Trajectory("u", (stay("u", X, utc_dt(999, 5, 1, 0, 0), utc_dt(999, 5, 1, 1, 30)),))
        ]), path)
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
                write_events_csv(EventColumns.from_events(events), path)
            return
        write_events_csv(EventColumns.from_events(events), path)
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
        stays = tuple(Stay("u", X, a, b) for a, b in zip(stamps, stamps[1:]))
        path = tmp_path / "stays.csv"
        write_stays_csv(StayColumns.from_trajectories([Trajectory("u", stays)]), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [
            (ingest._parse_timestamp(r["arrival"]).timestamp(),
             ingest._parse_timestamp(r["departure"]).timestamp())
            for r in rows
        ] == [(s.arrival, s.departure) for s in stays]


# ids csv.writer treats specially: a lone empty field is quoted but an empty
# field in a longer row is not, and "\r" is left unquoted
_IDS = st.sampled_from(["", ",", '"', "\r", "\n", " a", "é", 'a"b,c']) | st.text()
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


class TestLineWritersMatchCsvWriter:
    """Each writer that formats its lines itself writes the bytes
    `csv.writer` writes for the same rows."""

    @staticmethod
    def csv_bytes(tmp_path, header, rows) -> bytes:
        path = tmp_path / "want.csv"
        write_csv(path, header, rows)
        return path.read_bytes()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        ids=st.lists(_IDS, min_size=1, max_size=4, unique=True),
        stays=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(-5, 4096), st.integers(-5, 4096),
                st.integers(int(utc_dt(1, 1, 1).timestamp()),
                            int(utc_dt(9999, 12, 31, 23, 59, 59).timestamp())),
                st.integers(0, 3 * DAY_S),
            ),
            max_size=12,
        ),
    )
    @example(ids=["a"], stays=[(0, 1, 2, int(utc_dt(1, 1, 1).timestamp()), 0),
                               (0, 1, 2, int(utc_dt(9999, 12, 31, 23, 59, 59).timestamp()), 0)])
    def test_stays_csv(self, tmp_path, ids, stays):
        ids.sort()
        stays = sorted((u % len(ids), r, c, a, a + d) for u, r, c, a, d in stays)
        stays = [s for s in stays if s[4] <= utc_dt(9999, 12, 31, 23, 59, 59).timestamp()]
        columns = StayColumns(tuple(ids), *np.array(stays, dtype=np.int64).reshape(-1, 5).T)
        write_stays_csv(columns, tmp_path / "stays.csv")
        assert (tmp_path / "stays.csv").read_bytes() == self.csv_bytes(tmp_path, STAYS_HEADER, [
            [ids[u], r, c, format_epoch(0, a) + "Z", format_epoch(0, d) + "Z"]
            for u, r, c, a, d in stays
        ])

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        ids=st.lists(_IDS, min_size=1, max_size=4, unique=True),
        events=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(FIRST_DAY, LAST_DAY - 1),
                st.integers(-5, 4096), st.integers(-5, 4096), st.integers(0, 2),
                st.floats(0.0, 24.0), st.floats(0.0, 24.0), _FLOATS, _FLOATS,
            ),
            max_size=12,
        ),
    )
    def test_events_csv(self, tmp_path, ids, events):
        events = [(u % len(ids), *rest) for u, *rest in events]
        columns = EventColumns(
            tuple(ids),
            *(np.array([e[k] for e in events], dtype=np.int64) for k in range(4)),
            np.array([e[4] for e in events], dtype=np.int8),
            *(np.array([e[k] for e in events], dtype=np.float64) for k in range(5, 9)),
        )
        write_events_csv(columns, tmp_path / "events.csv")

        def instant(day, hour):
            return format_epoch(day, round(hour * 3600.0))

        assert (tmp_path / "events.csv").read_bytes() == self.csv_bytes(tmp_path, EVENTS_HEADER, [
            [ids[u], format_epoch(day), r, c, REGIMES[g].value, instant(day, start),
             instant(day, end), repr(power), repr(energy)]
            for u, day, r, c, g, start, end, power, energy in events
        ])

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        keys=st.lists(st.tuples(_IDS, st.integers(FIRST_DAY, LAST_DAY)), max_size=6, unique=True),
        step=st.sampled_from([360.0, 720.0, 1440.0]),
        data=st.data(),
    )
    def test_area_profile_csv(self, tmp_path, keys, step, data):
        n_steps = int(1440 // step)
        aggregates = {
            (area_id, day): AreaAggregate(
                area_id, day, 0.0, 0.0, 0.0,
                np.array(data.draw(st.lists(_FLOATS, min_size=n_steps, max_size=n_steps))),
                0.0, 0,
            )
            for area_id, day in keys
        }
        write_area_profile_csv(aggregates, step, tmp_path / "profile.csv")
        labels = [f"{int(k * step) // 60:02d}:{int(k * step) % 60:02d}" for k in range(n_steps)]
        assert (tmp_path / "profile.csv").read_bytes() == self.csv_bytes(
            tmp_path, ["area_id", "day", "step_start", "power_kw"], [
                [area_id, format_epoch(day), label, repr(power)]
                for (area_id, day), agg in sorted(aggregates.items())
                for label, power in zip(labels, agg.demand_profile.tolist())
            ],
        )


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

    @pytest.mark.parametrize("gap_s, n_stays", [(3599, 1), (3600, 2)])
    def test_same_cell_stays_less_than_tau_apart_merge(self, grid, gap_s, n_stays):
        # X 08:00-09:00, a dropped Y ping, X again gap_s after 09:00 for an hour
        cfg = IngestConfig(tau_s=3600.0, min_consecutive_days=1, grid=grid,
                           utc_offset_hours=0.0)
        back = utc_dt(2020, 9, 1, 9, 0) + timedelta(seconds=gap_s)
        recs = [
            ping("u", utc_dt(2020, 9, 1, 8, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 9, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 9, 30), grid, Y),
            ping("u", back, grid, X),
            ping("u", back + timedelta(hours=1), grid, X),
        ]
        trajs, stats = ingest_trajectories(Records.from_records(recs), cfg)
        assert stats.stays_emitted == 2
        assert len(trajs["u"].stays) == n_stays
        assert trajs["u"].stays[0].arrival == int(utc_dt(2020, 9, 1, 8, 0).timestamp())
        assert trajs["u"].stays[-1].departure == int((back + timedelta(hours=1)).timestamp())

    def test_same_cell_stays_of_two_users_stay_apart(self, grid):
        cfg = IngestConfig(min_consecutive_days=1, grid=grid, utc_offset_hours=0.0)
        recs = [
            ping(uid, utc_dt(2020, 9, 1, h, 0), grid, X) for uid in ("u", "v") for h in (8, 10)
        ]
        trajs, _ = ingest_trajectories(Records.from_records(recs), cfg)
        visit = (utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 10, 0))
        assert trajs == {uid: Trajectory(uid, (stay(uid, X, *visit),)) for uid in ("u", "v")}

    def test_merge_bridges_a_day_without_pings(self, grid):
        # two 30 h stays in X, 25.5 h apart with one Y ping between them and
        # none on Sep 2: merged, they cover Aug 31 to Sep 4, five days
        cfg = IngestConfig(tau_s=30 * 3600.0, min_consecutive_days=5, grid=grid,
                           utc_offset_hours=0.0)
        recs = [
            ping("u", utc_dt(2020, 8, 31, 17, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 23, 0), grid, X),
            ping("u", utc_dt(2020, 9, 1, 23, 30), grid, Y),
            ping("u", utc_dt(2020, 9, 3, 0, 30), grid, X),
            ping("u", utc_dt(2020, 9, 4, 6, 30), grid, X),
        ]
        trajs, stats = ingest_trajectories(Records.from_records(recs), cfg)
        assert stats.stays_emitted == 2
        assert trajs == {"u": Trajectory("u", (
            stay("u", X, utc_dt(2020, 8, 31, 17, 0), utc_dt(2020, 9, 4, 6, 30)),
        ))}

    def test_stays_are_built_for_retained_users_only(self, grid, monkeypatch):
        cfg = IngestConfig(min_consecutive_days=2, grid=grid, utc_offset_hours=0.0)
        recs = [  # a cell per day, so that no stay spans days
            ping(uid, utc_dt(2020, 9, d, h, 0), grid, CellId(d, d))
            for uid, days in (("a", (1, 2)), ("b", (1, 3)), ("c", (5,)))
            for d in days
            for h in (8, 10)
        ]
        built = []
        monkeypatch.setattr(ingest, "Stay", lambda *args: built.append(args) or Stay(*args))
        trajs, stats = ingest_trajectories(Records.from_records(recs), cfg)
        assert list(trajs) == ["a"]
        assert stats.stays_emitted == 5
        assert built == []  # the columns hold the stays; a lookup builds them
        assert trajs["a"].stays == (
            stay("a", CellId(1, 1), utc_dt(2020, 9, 1, 8, 0), utc_dt(2020, 9, 1, 10, 0)),
            stay("a", CellId(2, 2), utc_dt(2020, 9, 2, 8, 0), utc_dt(2020, 9, 2, 10, 0)),
        )
        assert [args[0] for args in built] == ["a", "a"]


# ---------------------------------------------------------------------------
# Columnar read + ingest against the per-user oracle on random CSV files
# ---------------------------------------------------------------------------

PROP_GRID = GridSpec(origin_lat=1.25, origin_lon=103.7, cell_size_m=250.0, n_rows=6, n_cols=6)
PROP_CELLS = [CellId(0, 0), CellId(0, 1), CellId(3, 4)]
DAY0 = utc_dt(2020, 9, 1)
EPOCH = utc_dt(1970, 1, 1)

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
def _visit(draw, plain=False):
    """Rows of one user pinging one place about every 15 min (a candidate
    stay), some of them malformed, some in the same second as the previous
    ping. A `plain` visit has ids that `csv.writer` writes without quotes
    and in ASCII."""
    uid = draw(st.sampled_from(["a", "b", ""] if plain else ["a", "c,d", "é", ""]))
    place = draw(st.one_of(*[_cell_coords] * 5, _odd_coords))
    # whole hours over four days, mostly a few of them, so that visits of one
    # user often share seconds and some users are active on three days
    hour = draw(st.one_of(st.sampled_from([7, 8, 9, 31, 32, 55]), st.integers(0, 95)))
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
        plain_visits=st.lists(_visit(plain=True), max_size=20),
        visits=st.lists(_visit(), max_size=20),
        shuffle_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        block_bytes=st.sampled_from([1, 64, 4096, ingest._BLOCK_BYTES]),
        min_days=st.sampled_from([1, 2, 3]),
        tau_s=st.sampled_from([1800.0, 3600.0]),
    )
    def test_read_and_ingest_equal_oracle(
        self, tmp_path, plain_visits, visits, shuffle_seed, quoting, newline, block_bytes,
        min_days, tau_s,
    ):
        # the plain rows come first, as ASCII without quotes or carriage
        # returns, so the byte scan reads them; the other rows may hand the
        # rest of the file to csv.reader, at the first block that holds one
        head = [row for visit in plain_visits for row in visit]
        rows = [row for visit in visits for row in visit]
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(head)
            random.Random(shuffle_seed).shuffle(rows)
        path = tmp_path / "records.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            plain = csv.writer(fh, lineterminator="\n")
            writer = csv.writer(fh, quoting=quoting, lineterminator=newline)
            (plain if head else writer).writerow(["user_id", "timestamp", "lat", "lon"])
            plain.writerows(head)
            writer.writerows(rows)
        cfg = IngestConfig(tau_s=tau_s, min_consecutive_days=min_days, grid=PROP_GRID,
                           utc_offset_hours=8.0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_BLOCK_BYTES", block_bytes)
            records, skipped = read_records_csv(path)
        trajs, stats = ingest_trajectories(records, cfg)

        by_user, want_skipped = read_records_per_row(path)
        want_trajs, want_stats = ingest_per_user(by_user, cfg)
        assert skipped == want_skipped
        assert records.user_ids == tuple(sorted(by_user))
        assert len(records) == sum(len(v) for v in by_user.values())
        for code, uid in enumerate(records.user_ids):
            mine, want = records.user == code, by_user[uid]
            assert records.t_us[mine].tolist() == [
                (r.timestamp - EPOCH) // timedelta(microseconds=1) for r in want
            ]
            assert records.lat[mine].tobytes() == np.array([r.lat for r in want]).tobytes()
            assert records.lon[mine].tobytes() == np.array([r.lon for r in want]).tobytes()
        assert list(trajs.items()) == list(want_trajs.items())
        assert stats == want_stats


_US = timedelta(microseconds=1)
_FIRST_US = (datetime(1, 1, 1, tzinfo=timezone.utc) - EPOCH) // _US
_LAST_US = (datetime(9999, 12, 31, 23, 59, 59, 999_999, tzinfo=timezone.utc) - EPOCH) // _US


@st.composite
def _user_time_columns(draw):
    """user codes and t_us of pings drawn from a few of each, so that equal
    (user, t_us) pairs are common. Stamps may be negative, and may span
    years 1 to 9999, whose 59 bits with 17 or more users leave the key no
    room."""
    users = draw(st.lists(
        st.one_of(st.integers(0, 40), st.integers(0, 2**40)), min_size=1, max_size=6
    ))
    stamps = draw(st.lists(st.one_of(
        st.integers(-3, 3), st.integers(-10**12, 10**12),
        st.sampled_from([_FIRST_US, _LAST_US]), st.integers(_FIRST_US, _LAST_US),
    ), min_size=1, max_size=6))
    rows = draw(st.lists(
        st.tuples(st.sampled_from(users), st.sampled_from(stamps)), min_size=1, max_size=60
    ))
    return tuple(np.array(column, dtype=np.int64) for column in zip(*rows))


def _counting_lexsort(monkeypatch) -> list:
    """Patch np.lexsort to record each call in the returned list."""
    calls, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    return calls


class TestUserTimeSort:
    @settings(max_examples=300, deadline=None)
    @given(columns=_user_time_columns())
    def test_permutation_equals_lexsort(self, columns):
        user, t_us = columns
        want = np.lexsort((t_us, user))
        got_user, got_t_us, order = ingest._by_user_time(user, t_us, np.arange(len(user)))
        assert order.tolist() == want.tolist()
        assert got_user.tolist() == user[want].tolist()
        assert got_t_us.tolist() == t_us[want].tolist()

    @pytest.mark.parametrize("span_bits, lexsort_calls", [(58, 0), (59, 1)])
    def test_key_is_used_up_to_63_bits(self, monkeypatch, span_bits, lexsort_calls):
        # 32 users take 5 bits: with a 58-bit span the largest key is
        # 2**63 - 1, and a 59-bit span falls back to lexsort
        rng = np.random.default_rng(5)
        t0 = -(1 << 50)
        user = rng.integers(0, 32, 400)
        user[:2] = 31
        t_us = t0 + rng.choice([0, 1, 1 << (span_bits - 1), (1 << span_bits) - 1], 400)
        t_us[:2] = t0 + (1 << span_bits) - 1
        want = np.lexsort((t_us, user))
        calls = _counting_lexsort(monkeypatch)
        got_user, got_t_us, order = ingest._by_user_time(user, t_us, np.arange(400))
        assert len(calls) == lexsort_calls
        assert order.tolist() == want.tolist()
        assert got_user.tolist() == user[want].tolist()
        assert got_t_us.tolist() == t_us[want].tolist()

    def test_csv_across_years_1_to_9999_equals_oracle(self, tmp_path, monkeypatch):
        # stamps in years 1 and 9999 span 59 bits of microseconds and user
        # codes up to 16 take 5 more, so read + ingest runs the lexsort
        # the two periods use different cells, so that no run of pings in one
        # cell spans the millennia between them
        rng = random.Random(11)
        periods = [
            (datetime(1, 1, 1, 3), CellId(0, 0), CellId(0, 1)),
            (datetime(9999, 12, 30, 20), CellId(3, 4), CellId(5, 5)),
        ]
        rows = []
        for i in range(17):
            for start, *cells in periods:
                home, other = (tuple(f"{v:.6f}" for v in PROP_GRID.cell_centroid(c)) for c in cells)
                for k in range(rng.randint(2, 8)):
                    stamp = f"{(start + timedelta(minutes=15 * k)).isoformat()}Z"
                    rows.append([f"u{i:02d}", stamp, *home])
                    if rng.random() < 0.3:  # elsewhere or out of the grid, same second
                        rows.append([f"u{i:02d}", stamp, *rng.choice([other, ("1.0", "2.0")])])
        rng.shuffle(rows)
        path = tmp_path / "records.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["user_id", "timestamp", "lat", "lon"])
            writer.writerows(rows)
        cfg = IngestConfig(tau_s=1800.0, min_consecutive_days=1, grid=PROP_GRID,
                           utc_offset_hours=8.0)

        records, skipped = read_records_csv(path)
        calls = _counting_lexsort(monkeypatch)
        trajs, stats = ingest_trajectories(records, cfg)

        assert calls
        by_user, want_skipped = read_records_per_row(path)
        want_trajs, want_stats = ingest_per_user(by_user, cfg)
        assert skipped == want_skipped == 0
        assert stats.records_out_of_grid > 0 and stats.users_retained > 0
        assert list(trajs.items()) == list(want_trajs.items())
        assert stats == want_stats


@pytest.fixture(scope="module")
def synth_records() -> Records:
    """About 50 k pings in `v2grid synth`'s shape: 75 users, 7 days of
    15-min pings, grouped by user, on synth's default grid."""
    grid = GridSpec(1.22, 103.60, 250.0, 120, 200)
    return Records.from_records(
        generate(SynthConfig.demo(grid, rng_seed=3, n_users=75, n_days=7), grid)
    )


class TestIngestMemory:
    # the synth grid, and the same grid one row short, which leaves pings
    # out of the grid
    @pytest.mark.parametrize("n_rows", [120, 119])
    def test_peak_is_at_most_1_5_times_the_columns(self, synth_records, n_rows):
        records = synth_records
        columns = sum(c.nbytes for c in (records.user, records.t_us, records.lat, records.lon))
        cfg = IngestConfig(grid=GridSpec(1.22, 103.60, 250.0, n_rows, 200))
        gc.collect()
        tracemalloc.start()
        try:
            stays, stats = ingest_trajectories(records, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) > 50_000 and stats.users_retained > 0
        assert (stats.records_out_of_grid > 0) == (n_rows == 119)
        assert peak <= 1.5 * columns

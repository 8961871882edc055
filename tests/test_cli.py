"""Command-line pipeline: exit codes, manifests, reproducibility."""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from v2grid import cli, engine, ingest, make_rect_area, write_planning_areas_geojson
from v2grid.cli import main
from v2grid.errors import InvalidInputError, InvariantViolationError
from v2grid.synth import write_demand_curve_csv


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_synth(tmp_path: Path, name: str, extra=()) -> Path:
    out = tmp_path / name
    code = main(
        [
            "synth", "--seed", "11", "--users", "40", "--days", "6",
            "--rows", "30", "--cols", "30", "--out", str(out),
            "--areas-out", str(tmp_path / "areas.geojson"),
            "--demand-out", str(tmp_path / "demand.csv"),
            *extra,
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory) -> Path:
    """The `run_synth` inputs, generated once for the tests that only read
    them."""
    root = tmp_path_factory.mktemp("synth")
    run_synth(root, "records.csv")
    return root


@pytest.fixture
def records(synth_inputs, tmp_path) -> Path:
    """A copy of the shared `run_synth` inputs in `tmp_path`; the records path."""
    for name in ("records.csv", "areas.geojson", "demand.csv"):
        shutil.copyfile(synth_inputs / name, tmp_path / name)
    return tmp_path / "records.csv"


OUTPUT_FILES = [
    "area_energy.csv", "area_peak.csv", "area_profile.csv",
    "coverage.csv", "coverage_hist.csv", "regression.txt", "metrics.geojson",
]


def run_pipeline(tmp_path: Path, records: Path, out_name: str, extra=()) -> Path:
    out_dir = tmp_path / out_name
    code = main(
        [
            "run", str(records), str(tmp_path / "areas.geojson"),
            str(tmp_path / "demand.csv"), "--out-dir", str(out_dir), *extra,
        ]
    )
    assert code == 0
    return out_dir


class TestSynthCommand:
    def test_same_flags_give_identical_digests(self, tmp_path):
        a = run_synth(tmp_path, "a.csv")
        b = run_synth(tmp_path, "b.csv")
        assert digest(a) == digest(b)

    def test_zero_users_exits_2(self, tmp_path):
        code = main(["synth", "--users", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_header_row_present(self, tmp_path):
        out = run_synth(tmp_path, "records.csv")
        assert out.read_text().splitlines()[0] == "user_id,timestamp,lat,lon"

    def test_years_before_1000_are_zero_padded_and_read_back(self, tmp_path):
        records = run_synth(tmp_path, "records.csv", ["--start-date", "0999-05-01"])
        # local midnight at UTC+8 is 16:00 UTC of the day before
        assert records.read_text().splitlines()[1].split(",")[1].startswith("0999-04-30T")
        out_dir = run_pipeline(tmp_path, records, "out")
        counts = json.loads((out_dir / "manifest.json").read_text())["counts"]
        assert counts["rows_read"] > 0
        assert counts["rows_skipped"] == 0


    @pytest.mark.parametrize("tz", ["1e300", "1e6", "nan", "-12.5"])
    def test_utc_offset_out_of_range_exits_2(self, tmp_path, tz):
        out = tmp_path / "x.csv"
        assert main(["synth", "--users", "2", "--tz", tz, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--mean-stays", "nan"), ("--mean-stays", "inf"), ("--ping-interval", "inf"),
        ("--seed", "-1"),
    ])
    def test_non_finite_float_or_negative_seed_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert main(["synth", "--users", "2", flag, value, "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_outputs_and_manifest_parameter_echo(self, tmp_path, records):
        out_dir = run_pipeline(tmp_path, records, "out")
        for name in OUTPUT_FILES + ["manifest.json"]:
            assert (out_dir / name).is_file(), name
        manifest = json.loads((out_dir / "manifest.json").read_text())
        params = manifest["parameters"]
        assert params["c_max_kwh"] == 25.0
        assert params["l_max_km"] == 135.0
        assert params["p_charge_kw"] == 6.6
        assert params["p_discharge_kw"] == 6.6
        assert params["c_thr"] == 0.5
        assert params["c_init"] == 0.5
        assert params["delta"] == 0.03
        assert params["pv_start"] == "09:00" and params["pv_end"] == "17:00"
        assert manifest["counts"]["users_retained"] > 0
        assert manifest["counts"]["events"] > 0
        for name in OUTPUT_FILES:
            assert manifest["outputs"][name] == digest(out_dir / name)

    def test_doubling_delta_doubles_area_energy(self, tmp_path, records):
        lo = run_pipeline(tmp_path, records, "lo", ["--delta", "0.03"])
        hi = run_pipeline(tmp_path, records, "hi", ["--delta", "0.06"])

        def read_energy(p: Path):
            with open(p / "area_energy.csv") as fh:
                return {
                    (r["area_id"], r["day"]): float(r["e_ev_kwh"])
                    for r in csv.DictReader(fh)
                }

        lo_e, hi_e = read_energy(lo), read_energy(hi)
        assert set(lo_e) == set(hi_e) and lo_e
        for key, v in lo_e.items():
            assert hi_e[key] == 2.0 * v

    def test_empty_records_file_exits_0_with_zero_aggregates(self, tmp_path, records):
        empty = tmp_path / "empty.csv"
        empty.write_text("user_id,timestamp,lat,lon\n")
        out_dir = run_pipeline(tmp_path, empty, "out_empty")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["warnings"]["empty_records_input"] is True
        assert manifest["counts"]["users_retained"] == 0
        with open(out_dir / "area_energy.csv") as fh:
            assert list(csv.DictReader(fh)) == []
        with open(out_dir / "coverage.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["e_ev_kwh"]) == 0.0 for r in rows)
        note = (out_dir / "regression.txt").read_text()
        assert "withheld" in note

    def test_missing_input_exits_2(self, tmp_path, records):
        code = main(
            [
                "run", str(tmp_path / "nope.csv"), str(tmp_path / "areas.geojson"),
                str(tmp_path / "demand.csv"), "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "name, data",
        [
            ("demand.csv", b"time_of_day,demand\n00:00,1.0\n"),
            ("demand.csv", b"time_of_day,demand\n00:00,0\n12:00,0\n"),
            ("records.csv", b"user,timestamp,lat,lon\n"),
            ("records.csv", b"user_id,timestamp,lat,lon\nu\xff,2020-09-01T08:00:00Z,1.3,103.8\n"),
            ("demand.csv", b"time_of_day,demand\n00:00,1\xff\n12:00,1\n"),
            # csv.reader's default field size limit is 131 072 characters
            ("records.csv", b'user_id,timestamp,lat,lon\n"' + b"u" * 131_073
             + b'",2020-09-01T08:00:00Z,1.3,103.8\n'),
            ("records.csv", b"user_id,timestamp,lat,lon\n" + b"u" * 131_073
             + b",2020-09-01T08:00:00Z,1.3,103.8\n"),
            # more than one read block of good rows before the bad byte
            ("records.csv", b"user_id,timestamp,lat,lon\n"
             + b"u,2020-09-01T08:00:00Z,1.3,103.8\n" * 40_000
             + b"u\xff,2020-09-01T08:00:00Z,1.3,103.8\n"),
        ],
        ids=["demand_one_row", "demand_sums_to_zero", "records_header",
             "records_not_utf8", "demand_not_utf8", "records_field_too_large",
             "records_unquoted_field_too_large", "records_not_utf8_after_a_block"],
    )
    def test_bad_input_exits_2_before_out_dir(self, tmp_path, records, name, data):
        (tmp_path / name).write_bytes(data)
        out_dir = tmp_path / "out"
        argv = [
            "run", str(records), str(tmp_path / "areas.geojson"),
            str(tmp_path / "demand.csv"), "--out-dir", str(out_dir), "--stays-csv",
        ]
        assert main(argv) == 2
        assert not out_dir.exists()

    def test_out_dir_mkdir_error_exits_2(self, tmp_path, records, capsys):
        out_dir = tmp_path / "dangling"
        out_dir.symlink_to(tmp_path / "missing")
        before = sorted(tmp_path.iterdir())
        argv = [
            "run", str(records), str(tmp_path / "areas.geojson"),
            str(tmp_path / "demand.csv"), "--out-dir", str(out_dir),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(tmp_path.iterdir()) == before  # no temporary sibling left

    def test_blocked_write_exits_2_before_reading(self, tmp_path, records, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        (out_dir / "coverage.csv").mkdir(parents=True)  # where the run writes a file

        def no_read(path):
            raise AssertionError("records read before the blocked name was found")

        monkeypatch.setattr(cli, "read_records_csv", no_read)
        argv = [
            "run", str(records), str(tmp_path / "areas.geojson"),
            str(tmp_path / "demand.csv"), "--out-dir", str(out_dir), "--min-days", "3",
        ]
        assert main(argv) == 2
        assert "coverage.csv is not a regular file" in capsys.readouterr().err
        assert sorted(p.name for p in out_dir.iterdir()) == ["coverage.csv"]

    def test_new_out_dir_is_renamed_into_place(self, tmp_path, records):
        (tmp_path / "made").mkdir()
        before = sorted(tmp_path.iterdir())
        out_dir = run_pipeline(tmp_path, records, "out")
        assert sorted(tmp_path.iterdir()) == sorted(before + [out_dir])
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(OUTPUT_FILES + ["manifest.json"])
        # the mode a plain mkdir gives, not the 0o700 of a temporary directory
        assert out_dir.stat().st_mode == (tmp_path / "made").stat().st_mode

    def test_existing_out_dir_keeps_other_files(self, tmp_path, records, monkeypatch):
        first = run_pipeline(tmp_path, records, "ro/out")
        digests = {name: digest(first / name) for name in OUTPUT_FILES}
        (first / "coverage.csv").write_text("stale\n")
        (first / "notes.txt").write_text("kept\n")
        # the temporary directory is made inside an existing --out-dir, so a
        # parent that is not writable (or on another filesystem) is never used;
        # the chmod alone does not stop root, so the directory is recorded too
        homes = []
        mkdtemp = tempfile.mkdtemp
        monkeypatch.setattr(tempfile, "mkdtemp", lambda **kw: homes.append(kw["dir"]) or mkdtemp(**kw))
        (tmp_path / "ro").chmod(0o555)
        try:
            run_pipeline(tmp_path, records, "ro/out")
        finally:
            (tmp_path / "ro").chmod(0o755)
        assert homes == [first]
        assert [p.name for p in (tmp_path / "ro").iterdir()] == ["out"]
        assert sorted(p.name for p in first.iterdir()) == sorted(
            OUTPUT_FILES + ["manifest.json", "notes.txt"])
        assert {name: digest(first / name) for name in OUTPUT_FILES} == digests
        assert (first / "notes.txt").read_text() == "kept\n"

    def test_failed_replace_leaves_no_stale_manifest(self, tmp_path, records, capsys, monkeypatch):
        out_dir = run_pipeline(tmp_path, records, "out")
        replace = os.replace
        calls = []

        def fail_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise PermissionError(1, "Operation not permitted", str(dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_second)
        argv = [
            "run", str(records), str(tmp_path / "areas.geojson"),
            str(tmp_path / "demand.csv"), "--out-dir", str(out_dir),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot write --out-dir")
        # one file was replaced, so no manifest may describe the directory
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(OUTPUT_FILES)

    def test_jobs_do_not_change_output_bytes(self, tmp_path, records):
        serial = run_pipeline(tmp_path, records, "serial", ["--jobs", "1"])
        parallel = run_pipeline(tmp_path, records, "parallel", ["--jobs", "2"])
        for name in OUTPUT_FILES:
            assert digest(serial / name) == digest(parallel / name), name

    def test_chunk_size_does_not_change_output_bytes(self, tmp_path, records, monkeypatch):
        def outputs(out_dir: Path) -> tuple[dict, dict]:
            files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            manifest = json.loads(files.pop("manifest.json"))
            return files, {k: manifest[k] for k in ("outputs", "counts", "warnings")}

        flags = ["--events-csv", "--stays-csv"]
        files, manifest = outputs(run_pipeline(tmp_path, records, "default", flags))
        # one chunk by default; 7 splits users' days across chunks
        assert len(files) == 9 and 7 < manifest["counts"]["traces"] <= cli._CHUNK_USER_DAYS
        for chunk in (1, 7):
            monkeypatch.setattr(cli, "_CHUNK_USER_DAYS", chunk)
            assert outputs(run_pipeline(tmp_path, records, f"chunk{chunk}", flags)) == (
                files, manifest
            )

    def test_time_ordered_local_stamps_give_the_same_results(self, tmp_path, records):
        # the same pings as a live feed sends them: in time order, stamped
        # in local +08:00 time
        with open(records, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        instants = [datetime.fromisoformat(row[1].replace("Z", "+00:00")) for row in rows]
        order = sorted(range(len(rows)), key=instants.__getitem__)
        local = timezone(timedelta(hours=8))
        feed = tmp_path / "feed.csv"
        with open(feed, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(
                [rows[i][0], instants[i].astimezone(local).isoformat(), *rows[i][2:]]
                for i in order
            )
        assert order != list(range(len(rows)))

        results = []
        for label, path in (("grouped", records), ("feed", feed)):
            out_dir = run_pipeline(tmp_path, path, label)
            manifest = json.loads((out_dir / "manifest.json").read_text())
            results.append((
                {name: digest(out_dir / name) for name in OUTPUT_FILES},
                manifest["counts"], manifest["warnings"],
            ))
        assert results[0] == results[1]

    def test_run_builds_no_per_event_objects(self, tmp_path, records, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("the run path built a per-user-day or per-event object")

        for name in ("simulate_day", "run_scenario", "SocTrace", "ChargeEvent"):
            monkeypatch.setattr(engine, name, forbidden)
        out_dir = run_pipeline(tmp_path, records, "out", ["--events-csv"])
        assert len((out_dir / "events.csv").read_text().splitlines()) > 1

    def test_run_builds_no_per_stay_objects(self, tmp_path, records, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("the run path built a per-stay or per-user object")

        for name in ("Stay", "Trajectory"):
            monkeypatch.setattr(ingest, name, forbidden)
        out_dir = run_pipeline(tmp_path, records, "out", ["--stays-csv", "--events-csv"])
        assert len((out_dir / "stays.csv").read_text().splitlines()) > 1
        assert len((out_dir / "events.csv").read_text().splitlines()) > 1

    def test_events_dump_optional(self, tmp_path, records):
        out_dir = run_pipeline(tmp_path, records, "ev", ["--events-csv"])
        lines = (out_dir / "events.csv").read_text().splitlines()
        assert lines[0] == (
            "user_id,day,cell_row,cell_col,regime,start,end,power_kw,energy_kwh"
        )
        assert len(lines) > 1

    def test_stays_dump_optional(self, tmp_path, records):
        out_dir = run_pipeline(tmp_path, records, "st", ["--stays-csv"])
        lines = (out_dir / "stays.csv").read_text().splitlines()
        assert lines[0] == "user_id,cell_row,cell_col,arrival,departure"
        assert len(lines) > 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "stays.csv" in manifest["outputs"]

    def test_rerun_reproduces_identical_outputs(self, tmp_path, records):
        first = run_pipeline(tmp_path, records, "r1")
        second = run_pipeline(tmp_path, records, "r2")
        for name in OUTPUT_FILES:
            assert digest(first / name) == digest(second / name)
        m1 = json.loads((first / "manifest.json").read_text())
        m2 = json.loads((second / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert m1["inputs"] == m2["inputs"]

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--pv-start", "25:00"], 2),
            (["--pv-start", "abc"], 2),
            (["--pv-end", "24:00"], 0),
            (["--jobs", "0"], 2),
            (["--time-step", "7"], 2),
            (["--delta", "0"], 2),
            (["--n-pop", "0"], 2),
            (["--n-pop", "nan"], 2),
            (["--tau", "0"], 2),
            (["--min-days", "0"], 2),
            (["--tau", "nan"], 2),
            (["--tau", "1e300"], 2),
            (["--tz", "nan"], 2),
            (["--days-in-month", "0", "--stays-csv"], 2),
            (["--cell-size", "0"], 2),
            (["--cell-size", "inf"], 2),
            (["--time-step", "1e13"], 2),
            (["--time-step", "0.5"], 2),
            (["--time-step", "7.5"], 2),
            (["--cell-size", "1e-320"], 2),
            (["--out-dir", "records.csv"], 2),
            (["--out-dir", "records.csv/sub"], 2),
            (["--tz", "1e300"], 2),
            (["--tz", "1e6"], 2),
            (["--tz", "14.5"], 2),
            (["--tz", "-12.5"], 2),
            (["--c-max", "inf"], 2),
            (["--l-max", "inf"], 2),
            (["--p-charge", "inf"], 2),
            (["--p-discharge", "inf"], 2),
            (["--n-pop", "1e20"], 2),
            (["--n-pop", "1e300"], 2),
            (["--n-pop", "1e308"], 2),
        ],
    )
    def test_flag_exit_codes(self, tmp_path, records, monkeypatch, flags, code):
        monkeypatch.chdir(tmp_path)  # so a relative --out-dir names the records file
        out_dir = tmp_path / "out"
        argv = [
            "run", str(records), str(tmp_path / "areas.geojson"),
            str(tmp_path / "demand.csv"), "--out-dir", str(out_dir), *flags,
        ]
        assert main(argv) == code
        # a rejected flag stops the run before any input is read or written
        assert out_dir.exists() == (code == 0)

    def test_metrics_geojson_mean_agrees_with_coverage(self, tmp_path):
        # one user stays 09:00-21:00 local in area A on Sep 1 and in area B on
        # Sep 2: each area has events on one of the two simulated days
        a = make_rect_area("A", 1.30, 1.31, 103.80, 103.81, area_m2=1e6,
                           households=1000, monthly_kwh_per_household=300.0)
        b = make_rect_area("B", 1.30, 1.31, 103.82, 103.83, area_m2=1e6,
                           households=2000, monthly_kwh_per_household=300.0)
        write_planning_areas_geojson([a, b], tmp_path / "areas.geojson")
        write_demand_curve_csv(tmp_path / "demand.csv")
        records = tmp_path / "records.csv"
        lines = ["user_id,timestamp,lat,lon"]
        for day, lon in ((1, 103.805), (2, 103.825)):
            for hour in range(1, 14):  # 01:00-13:00 UTC is 09:00-21:00 at UTC+8
                lines.append(f"u,2020-09-0{day}T{hour:02d}:00:00Z,1.305,{lon}")
        records.write_text("\n".join(lines) + "\n")
        out_dir = run_pipeline(tmp_path, records, "out", ["--min-days", "1"])

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["counts"]["simulated_days"] == 2
        with open(out_dir / "coverage.csv") as fh:
            coverage = {r["area_id"]: float(r["e_ev_kwh"]) for r in csv.DictReader(fh)}
        doc = json.loads((out_dir / "metrics.geojson").read_text())
        geojson = {
            f["properties"]["area_id"]: f["properties"]["e_ev_kwh_mean_daily"]
            for f in doc["features"]
        }
        assert set(coverage) == set(geojson) == {"A", "B"}
        assert all(v > 0 for v in coverage.values())
        assert geojson == coverage

    @pytest.mark.parametrize("n_pop", ["1e9"])
    def test_coverage_histogram_is_bounded(self, tmp_path, records, n_pop):
        # so many people per observed user put ratios far past 100
        out_dir = run_pipeline(tmp_path, records, "out", ["--n-pop", n_pop])
        with open(out_dir / "coverage_hist.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(out_dir / "coverage.csv") as fh:
            ratios = [float(r["ratio"]) for r in csv.DictReader(fh) if r["ratio"]]
        assert len(rows) == 2001
        assert (rows[-1]["bin_low"], float(rows[-1]["bin_high"])) == ("100.0", max(ratios))
        assert sum(int(r["count"]) for r in rows) == len(ratios)

    def test_failure_after_the_read_makes_no_out_dir(self, tmp_path, records, monkeypatch):
        def broken(_job):
            raise InvariantViolationError("simulation broke")

        monkeypatch.setattr(cli, "_simulate_chunk", broken)
        out_dir = tmp_path / "out"
        argv = [
            "run", str(records), str(tmp_path / "areas.geojson"),
            str(tmp_path / "demand.csv"), "--out-dir", str(out_dir), "--stays-csv",
        ]
        assert main(argv) == 3
        assert not out_dir.exists()

    def test_n_pop_below_retained_users_leaves_no_stays_csv(self, tmp_path, records):
        out_dir = tmp_path / "out"
        argv = [
            "run", str(records), str(tmp_path / "areas.geojson"),
            str(tmp_path / "demand.csv"), "--out-dir", str(out_dir),
            "--n-pop", "1", "--stays-csv",
        ]
        assert main(argv) == 2
        assert not (out_dir / "stays.csv").exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["features"][0]["properties"].update(area_m2="big"),
            lambda doc: doc["features"][0]["properties"].update(households="many"),
            lambda doc: doc["features"][0]["properties"].update(area_m2=None),
            lambda doc: "{",  # truncated file
            lambda doc: doc["features"].insert(0, "x"),
            lambda doc: doc.update(features=5),
            lambda doc: doc["features"][0].update(properties=["area_id", "area_m2"]),
            lambda doc: doc["features"][0].update(geometry="x"),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0].insert(1, [3]),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0][1].__setitem__(
                0, "east"),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0][1].__setitem__(
                0, 10**400),
            # read by its characters, this position would be lon 1, lat 1
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0].__setitem__(
                1, "11.35"),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0].__setitem__(
                1, [str(value) for value in doc["features"][0]["geometry"]["coordinates"][0][1]]),
            lambda doc: doc["features"][0]["geometry"].pop("coordinates"),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0][1].__setitem__(
                0, float("nan")),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0][1].__setitem__(
                0, float("inf")),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0][1].__setitem__(
                1, 95.0),
            # asks for a 26 145 x 126 142 grid of 250 m cells, 3.3 G cells
            lambda doc: (
                doc["features"][0]["geometry"]["coordinates"][0][1].__setitem__(1, 60.0),
                doc["features"][0]["geometry"]["coordinates"][0][2].__setitem__(0, -180.0)),
            # json writes and reads these as Infinity and NaN
            lambda doc: doc["features"][0]["properties"].update(
                monthly_kwh_per_household=float("inf")),
            lambda doc: doc["features"][0]["properties"].update(
                monthly_kwh_per_household=float("nan")),
        ],
        ids=["area_m2", "households", "area_m2_null", "truncated", "feature_string",
             "features_number", "properties_list", "geometry_string", "short_position",
             "word_in_position", "huge_integer_in_position", "string_position",
             "numeric_string_coordinates", "no_coordinates", "nan_vertex", "inf_vertex",
             "lat_95_vertex", "stray_vertices", "kwh_infinity", "kwh_nan"],
    )
    def test_malformed_areas_exit_2(self, tmp_path, records, corrupt):
        areas = tmp_path / "areas.geojson"
        doc = json.loads(areas.read_text())
        replaced = corrupt(doc)
        areas.write_text(replaced if isinstance(replaced, str) else json.dumps(doc))
        argv = [
            "run", str(records), str(areas), str(tmp_path / "demand.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()


class TestRecordsDigest:
    """The records digest is computed in a thread beside the run."""

    @pytest.mark.parametrize("shape", ["byte_scan", "quoted_id", "no_final_newline",
                                       "header_only"])
    def test_manifest_records_digest_is_the_file_sha256(self, tmp_path, records, shape):
        text = records.read_bytes()
        header, first, rest = text.split(b"\n", 2)
        user, tail = first.split(b",", 1)
        edited = {
            "byte_scan": text,
            # a quote hands the rest of the file to csv.reader
            "quoted_id": b"\n".join([header, b'"' + user + b'",' + tail, rest]),
            "no_final_newline": text.rstrip(b"\n"),
            "header_only": header + b"\n",
        }[shape]
        records.write_bytes(edited)
        out_dir = run_pipeline(tmp_path, records, "out")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["inputs"]["records"] == hashlib.sha256(edited).hexdigest()
        assert manifest["counts"]["rows_read"] == edited.count(b"\n") - (shape != "no_final_newline")

    @pytest.mark.parametrize("failure, code", [(None, 0), ("bad_header", 2),
                                               ("invariant", 3)])
    def test_no_thread_outlives_the_run(self, tmp_path, records, monkeypatch, failure, code):
        run = cli._Digest.run

        def slow_run(self):
            time.sleep(0.2)  # still hashing when a failed run gives up
            run(self)

        def broken(*_args):
            raise InvariantViolationError("simulation broke")

        monkeypatch.setattr(cli._Digest, "run", slow_run)
        if failure == "bad_header":
            records.write_bytes(b"user,timestamp,lat,lon\n")
        elif failure == "invariant":
            monkeypatch.setattr(cli, "simulate_user_days", broken)
        before = threading.active_count()
        argv = [
            "run", str(records), str(tmp_path / "areas.geojson"),
            str(tmp_path / "demand.csv"), "--out-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == code
        assert threading.active_count() == before
        if code == 0:
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["inputs"]["records"] == digest(records)


def test_python_m_v2grid_run_exits_0_with_complete_outputs(records, tmp_path):
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "v2grid", "run", str(records), str(tmp_path / "areas.geojson"),
         str(tmp_path / "demand.csv"), "--out-dir", str(out_dir)],
        env=_python_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(OUTPUT_FILES + ["manifest.json"])
    assert manifest["outputs"] == {name: digest(out_dir / name) for name in OUTPUT_FILES}
    assert manifest["inputs"]["records"] == digest(records)


def test_python_m_v2grid_flushes_the_error_line_before_exit_2(tmp_path):
    # the error line must reach the pipe before os._exit ends the process
    proc = subprocess.run(
        [sys.executable, "-m", "v2grid", "run", str(tmp_path / "nope.csv"),
         str(tmp_path / "areas.geojson"), str(tmp_path / "demand.csv"),
         "--out-dir", str(tmp_path / "out")],
        env=_python_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: input file not found: {tmp_path / 'nope.csv'}\n"
    assert not (tmp_path / "out").exists()


# every name `v2grid` exports, by the module that defines it
EXPORTS = {
    "aggregate": ["AggregateBuilder", "AreaAggregate", "PvSupport", "ScalingConfig", "Sizing",
                  "UNASSIGNED", "attach_sizing", "peak_density_and_sizing", "pv_sufficiency"],
    "baseline": ["CoverageResult", "DemandCurve", "RegressionSummary", "coverage_and_stats",
                 "household_baselines", "household_night_energy", "night_fraction",
                 "read_demand_csv"],
    "engine": ["ChargeEvent", "DayStay", "DepletionJump", "EventColumns", "PvWindow", "Regime",
               "SocTrace", "VehicleParams", "day_range_of", "drive_depletion_kwh",
               "run_scenario", "simulate_day", "simulate_user_days"],
    "errors": ["InvalidConfigError", "InvalidGeometryError", "InvalidInputError",
               "InvariantViolationError", "MissingHouseholdDataError",
               "UndefinedFractionError", "V2GridError"],
    "geo": ["AreaIndex", "CellId", "GridSpec", "PlanningArea", "build_area_index",
            "cell_distance_m", "cell_distances_m", "haversine_m", "load_planning_areas",
            "locate", "locate_many", "make_rect_area", "write_planning_areas_geojson"],
    "ingest": ["IngestConfig", "IngestStats", "LocationRecord", "Records", "Stay",
               "StayColumns", "Trajectory", "extract_stays", "ingest_trajectories",
               "read_records_csv", "write_records_csv", "write_stays_csv"],
    "synth": ["PlannedStay", "SynthConfig", "generate", "planted_trajectories",
              "synthetic_planning_areas", "user_stay_plan", "write_demand_curve_csv"],
}


def test_package_exports_every_public_name():
    import v2grid

    expected = {name for names in EXPORTS.values() for name in names}
    assert set(v2grid.__all__) == expected and len(v2grid.__all__) == len(expected)
    assert expected <= set(dir(v2grid))
    namespace: dict = {}
    exec("from v2grid import *", namespace)
    assert set(namespace) - {"__builtins__"} == expected
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"v2grid.{module}")
        for name in names:
            assert namespace[name] is getattr(defining, name) is getattr(v2grid, name)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        v2grid.nope


def test_grid_size_is_capped(monkeypatch):
    areas = [make_rect_area("A", 1.30, 1.31, 103.80, 103.82, area_m2=1e6)]
    n_cells = cli._grid_from_areas(areas, 250.0).n_cells
    assert n_cells > 1
    monkeypatch.setattr(cli, "_MAX_GRID_CELLS", n_cells)
    assert cli._grid_from_areas(areas, 250.0).n_cells == n_cells
    monkeypatch.setattr(cli, "_MAX_GRID_CELLS", n_cells - 1)
    with pytest.raises(InvalidInputError, match="stray vertices or raise --cell-size"):
        cli._grid_from_areas(areas, 250.0)


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python_env(**variables: str) -> dict[str, str]:
    """The environment for a Python subprocess that imports v2grid from this
    checkout, without the variables that set OpenBLAS's thread count."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**env, **variables}


def test_cli_import_leaves_out_scipy_stats(tmp_path):
    # scipy costs about 0.27 s and 20 MB at every start, so neither the import
    # nor a whole run that reaches pearson_r may load it; multiprocessing
    # would mean a process pool is back on the run path; numpy.ma, which
    # some numpy calls import on first use, costs 10-30 ms; v2grid.synth
    # serves `v2grid synth` only, and costs a run about 5 ms to compile and
    # execute. OpenBLAS's worker threads cost about 60 ms of CPU as numpy
    # loads, so the process keeps one thread, and the variable that asked for
    # it is gone again.
    records, areas, demand = (tmp_path / n for n in ("records.csv", "areas.geojson", "demand.csv"))
    assert main([
        "synth", "--users", "20", "--seed", "3", "--out", str(records),
        "--areas-out", str(areas), "--demand-out", str(demand),
    ]) == 0
    code = (
        "import json, os, sys\n"
        "def unwanted():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] in ('scipy', 'multiprocessing')\n"
        "                  or m.split('.')[:2] == ['numpy', 'ma'] or m == 'v2grid.synth')\n"
        "def threads():\n"
        "    return len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1\n"
        "from v2grid import cli\n"
        "after_import = [unwanted(), threads(), 'OPENBLAS_NUM_THREADS' in os.environ]\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([after_import, code, unwanted(), threads()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", str(records), str(areas), str(demand),
         "--out-dir", str(tmp_path / "out"), "--events-csv", "--stays-csv"],
        env=_python_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[[], 1, False], 0, [], 1]
    # the statistics are not withheld, so pearson_r ran
    assert (tmp_path / "out" / "regression.txt").read_text().startswith("r = ")


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS starts worker threads only with two or more CPUs",
)
def test_blas_thread_count_set_by_the_user_wins():
    code = (
        "import os, sys\n"
        "__import__(sys.argv[1])\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )

    def threads_after_import(module: str, **variables: str) -> list[str]:
        proc = subprocess.run([sys.executable, "-c", code, module], env=_python_env(**variables),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    # without v2grid's rule, numpy's OpenBLAS starts workers here
    count, variable = threads_after_import("numpy")
    assert int(count) > 1 and variable == "None"
    assert threads_after_import("v2grid", OPENBLAS_NUM_THREADS="2") == ["2", "2"]

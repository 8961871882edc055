"""Command-line pipeline: exit codes, manifests, reproducibility."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from v2grid import make_rect_area, write_planning_areas_geojson
from v2grid.cli import main
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


class TestRunCommand:
    def test_outputs_and_manifest_parameter_echo(self, tmp_path):
        records = run_synth(tmp_path, "records.csv")
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

    def test_doubling_delta_doubles_area_energy(self, tmp_path):
        records = run_synth(tmp_path, "records.csv")
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

    def test_empty_records_file_exits_0_with_zero_aggregates(self, tmp_path):
        run_synth(tmp_path, "records.csv")  # produces areas + demand files
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

    def test_missing_input_exits_2(self, tmp_path):
        run_synth(tmp_path, "records.csv")
        code = main(
            [
                "run", str(tmp_path / "nope.csv"), str(tmp_path / "areas.geojson"),
                str(tmp_path / "demand.csv"), "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_jobs_do_not_change_output_bytes(self, tmp_path):
        records = run_synth(tmp_path, "records.csv")
        serial = run_pipeline(tmp_path, records, "serial", ["--jobs", "1"])
        parallel = run_pipeline(tmp_path, records, "parallel", ["--jobs", "2"])
        for name in OUTPUT_FILES:
            assert digest(serial / name) == digest(parallel / name), name

    def test_events_dump_optional(self, tmp_path):
        records = run_synth(tmp_path, "records.csv")
        out_dir = run_pipeline(tmp_path, records, "ev", ["--events-csv"])
        lines = (out_dir / "events.csv").read_text().splitlines()
        assert lines[0] == (
            "user_id,day,cell_row,cell_col,regime,start,end,power_kw,energy_kwh"
        )
        assert len(lines) > 1

    def test_stays_dump_optional(self, tmp_path):
        records = run_synth(tmp_path, "records.csv")
        out_dir = run_pipeline(tmp_path, records, "st", ["--stays-csv"])
        lines = (out_dir / "stays.csv").read_text().splitlines()
        assert lines[0] == "user_id,cell_row,cell_col,arrival,departure"
        assert len(lines) > 1
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "stays.csv" in manifest["outputs"]

    def test_rerun_reproduces_identical_outputs(self, tmp_path):
        records = run_synth(tmp_path, "records.csv")
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
        ],
    )
    def test_flag_exit_codes(self, tmp_path, flags, code):
        records = run_synth(tmp_path, "records.csv")
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

    def test_n_pop_below_retained_users_leaves_no_stays_csv(self, tmp_path):
        records = run_synth(tmp_path, "records.csv")
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
            lambda doc: doc["features"][0]["geometry"].pop("coordinates"),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0][1].__setitem__(
                0, float("nan")),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0][1].__setitem__(
                0, float("inf")),
            lambda doc: doc["features"][0]["geometry"]["coordinates"][0][1].__setitem__(
                1, 95.0),
        ],
        ids=["area_m2", "households", "area_m2_null", "truncated", "feature_string",
             "features_number", "properties_list", "geometry_string", "short_position",
             "no_coordinates", "nan_vertex", "inf_vertex", "lat_95_vertex"],
    )
    def test_malformed_areas_exit_2(self, tmp_path, corrupt):
        records = run_synth(tmp_path, "records.csv")
        areas = tmp_path / "areas.geojson"
        doc = json.loads(areas.read_text())
        replaced = corrupt(doc)
        areas.write_text(replaced if isinstance(replaced, str) else json.dumps(doc))
        argv = [
            "run", str(records), str(areas), str(tmp_path / "demand.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]
        assert main(argv) == 2


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about a second and 70 MB at every start
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, v2grid.cli; sys.exit('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))},
        timeout=120,
    )
    assert proc.returncode == 0

"""Self-test of the benchmark at a tiny size (a few seconds per test).

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Run from the repository root. Checks that the generator is byte-stable for a
fixed seed, that the checker passes real outputs and flags deliberately
corrupted ones, and that the traced run reproduces the CLI's output digests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import check_outputs, sha256  # noqa: E402
from workloads import AREAS, DEMAND, META, RECORDS, WORKLOADS, generate  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"
TINY_USERS = 40
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _fresh(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _tiny(workload: str, seed: int = 5, name: str = "") -> tuple[Path, dict]:
    out = _fresh(name or f"{workload}-{seed}")
    return out, generate(workload, seed, out, TINY_USERS)


def _run(inputs: Path, out: Path, flags) -> None:
    argv = [sys.executable, "-m", "v2grid", "run", str(inputs / RECORDS), str(inputs / AREAS),
            str(inputs / DEMAND), "--out-dir", str(out), *flags]
    subprocess.run(argv, env=ENV, check=True, cwd=ROOT)


def _rewrite(out: Path, name: str, edit) -> None:
    """Apply `edit` to one output file and re-sign it in the manifest, so that
    only the consistency checks can notice."""
    path = out / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"][name] = sha256(path)
    (out / "manifest.json").write_text(json.dumps(manifest))


def test_generator_is_byte_stable():
    for workload in WORKLOADS:
        a, meta_a = _tiny(workload, name="a")
        b, meta_b = _tiny(workload, name="b")
        for name in (RECORDS, AREAS, DEMAND):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (workload, name)
        meta_a.pop("generate_s"), meta_b.pop("generate_s")
        assert meta_a == meta_b
        c, _ = _tiny(workload, seed=6, name="c")
        assert (a / RECORDS).read_bytes() != (c / RECORDS).read_bytes(), workload


def test_paper_funnel_plants_its_funnel():
    inputs, meta = _tiny("paper_funnel")
    text = (inputs / RECORDS).read_text()
    assert meta["skipped"] >= 1 and "+08:00" in text
    assert meta["rows"] == text.count("\n") - 1
    areas = json.loads((inputs / AREAS).read_text())["features"]
    assert len(areas) == 55
    assert min(len(f["geometry"]["coordinates"][0]) for f in areas) > 100


def test_checker_passes_real_outputs_and_flags_corruption():
    wl = WORKLOADS["paper_funnel"]
    inputs, meta = _tiny("paper_funnel")
    out = _fresh("out")
    _run(inputs, out, wl.flags)
    assert check_outputs(out, meta, wl.dumps) == []

    wrong_count = dict(meta, rows=meta["rows"] + 1)
    assert any("rows_read" in p for p in check_outputs(out, wrong_count, wl.dumps))

    pristine = _fresh("pristine")
    shutil.copytree(out, pristine, dirs_exist_ok=True)
    corruptions = {
        # a byte changed behind the manifest's back
        "area_peak.csv": (lambda t: t.replace(",", ";", 1), False, "sha256"),
        # re-signed files: digests agree, the numbers do not
        "coverage.csv": (lambda t: _set_field(t, 1, 1, "1234.5"), True, "coverage.csv"),
        "area_profile.csv": (lambda t: _set_field(t, 1, 3, "1e9"), True, "area_peak"),
        "events.csv": (lambda t: t[: t.rstrip("\n").rfind("\n") + 1], True, "events.csv"),
    }
    for name, (edit, resign, expect) in corruptions.items():
        shutil.rmtree(out)
        shutil.copytree(pristine, out)
        if resign:
            _rewrite(out, name, edit)
        else:
            (out / name).write_text(edit((out / name).read_text()))
        problems = check_outputs(out, meta, wl.dumps)
        assert any(expect in p for p in problems), (name, problems)


def _set_field(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[row].rstrip("\n").split(",")
    fields[col] = value
    lines[row] = ",".join(fields) + "\n"
    return "".join(lines)


def test_traced_run_matches_cli():
    wl = WORKLOADS["many_trips"]
    inputs, meta = _tiny("many_trips")
    cli_out, traced_out = _fresh("cli"), _fresh("traced")
    _run(inputs, cli_out, wl.flags)
    spans = SCRATCH / "spans.json"
    subprocess.run(
        [sys.executable, str(HERE / "traced.py"), str(inputs / RECORDS), str(inputs / AREAS),
         str(inputs / DEMAND), "--out-dir", str(traced_out), "--spans-out", str(spans),
         *wl.flags], env=ENV, check=True, cwd=ROOT)
    assert check_outputs(traced_out, meta, wl.dumps) == []
    cli_digests = json.loads((cli_out / "manifest.json").read_text())["outputs"]
    traced_digests = json.loads((traced_out / "manifest.json").read_text())["outputs"]
    assert cli_digests == traced_digests
    doc = json.loads(spans.read_text())
    names = {s[0] for s in doc["spans"]}
    assert {"cli.import", "geo.index", "ingest.read", "engine.simulate",
            "aggregate.reduce"} <= names
    assert doc["counts"]["engine.traces"] == TINY_USERS * 7


if __name__ == "__main__":
    tests = [f for n, f in sorted(globals().items()) if n.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    shutil.rmtree(SCRATCH, ignore_errors=True)

"""Pipeline benchmark for ``v2grid run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark

1. generates the workload's inputs from the seed (cached on disk under
   ``.perfbench/`` by workload, seed and generator source; outside every
   timed region);
2. for ``many_trips``, makes one untimed ``--jobs 1`` reference run;
3. for ``--seconds`` seconds (counted from the reference run), runs
   ``v2grid run`` closed-loop, one at a time: set-up runs (the same command
   on a header-only records CSV, ``SETUP_REPS`` of them, ``setup_s`` is their
   median) alternate with the first timed runs, and a run is started only if
   it is expected to end within the window (at least three timed runs).
   Each run is timed from spawn to exit, with CPU time and peak RSS of its
   whole process tree read from ``wait4``, while a driver thread samples
   the host's speed and steal time (``hostspeed.py``). Every reported time is
   scaled to the reference host speed, wall times without stolen time, and
   is the median over the window's runs;
4. checks every run's outputs (``check.py``) and that every timed run, and
   the reference run, produced the same output digests;
5. with ``--trace 1``, makes one traced serial run (``traced.py``), checks
   it like the others and that its output digests equal the timed runs',
   and reports per-layer self times and counts instead of the end-to-end
   metrics.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
run as ``python -m v2grid`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from check import check_outputs, output_digests  # noqa: E402
from workloads import AREAS, DEMAND, META, RECORDS, RECORDS_HEADER, WORKLOADS  # noqa: E402

SETUP_REPS = 3
MIN_TIMED_RUNS = 3
DEADLINE_S = 170.0  # a benchmark invocation must end within 180 s
CACHE_KEEP = 6  # generated input sets kept on disk
WORK = Path(".perfbench")


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    host_s: float
    steal: float
    ok: bool
    why: str = ""
    digests: dict = field(default_factory=dict)

    @property
    def wall_scale(self) -> float:
        """Factor that scales this run's wall time to the reference host
        speed, without the time its vCPUs were taken away (hostspeed.py)."""
        return (1.0 - self.steal) * self.cpu_scale

    @property
    def cpu_scale(self) -> float:
        """Factor that scales this run's CPU time to the reference host speed."""
        return hostspeed.REFERENCE_S / self.host_s


class Bench:
    def __init__(self, root: Path, deadline: float, log: Path):
        self.root = root
        self.deadline = deadline
        self.log = log
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str]) -> tuple[float, float, float, float, float, int]:
        """Run one child to completion; (wall s, user+sys CPU s of its process
        tree, max RSS MB over the tree, host_s and steal sampled meanwhile,
        exit code or -1 on timeout)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        self.log.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                                    stderr=err, start_new_session=True)
        sampler = hostspeed.Sampler()
        sampler.start()
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait4 reaps the child and reports the resources of it and of
            # every descendant it waited for (pool workers included)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        finally:
            timer.cancel()
            host_s, steal = sampler.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err = self.log.read_text(errors="replace").strip()
        if err and proc.returncode:
            print(err.splitlines()[-1], file=sys.stderr)
        code = -1 if timed_out.is_set() else proc.returncode
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, host_s, steal,
                code)

    def checked_run(self, label: str, argv: list[str], out: Path, expected: dict,
                    dumps: bool) -> Run:
        """Spawn one run that writes into `out`, check its outputs, count it."""
        shutil.rmtree(out, ignore_errors=True)
        wall, cpu, rss, host_s, steal, code = self.spawn(argv)
        if code != 0:
            run = Run(wall, cpu, rss, host_s, steal, False,
                      "timed out" if code == -1 else f"exit code {code}")
        else:
            problems = check_outputs(out, expected, dumps)
            run = Run(wall, cpu, rss, host_s, steal, not problems, "; ".join(problems[:3]),
                      {} if problems else output_digests(out))
        self.attempted += 1
        if not run.ok:
            self.failed += 1
            self.failures.append(f"{label}: {run.why}")
        return run

    def v2grid_run(self, label: str, inputs: Path, records: Path, flags, out: Path,
                   expected: dict, dumps: bool) -> Run:
        argv = [sys.executable, "-m", "v2grid", "run", str(records),
                str(inputs / AREAS), str(inputs / DEMAND), "--out-dir", str(out), *flags]
        return self.checked_run(label, argv, out, expected, dumps)


def _source_key() -> str:
    """Generated inputs depend on the generator and on v2grid.synth."""
    digest = hashlib.sha256()
    for path in (HERE / "workloads.py", Path("src/v2grid/synth.py"), Path("src/v2grid/geo.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def ensure_inputs(bench: Bench, workload: str, seed: int) -> tuple[Path, dict]:
    cache = WORK / "inputs"
    inputs = cache / f"{workload}-{seed}-{_source_key()}"
    if not (inputs / META).is_file():
        shutil.rmtree(inputs, ignore_errors=True)
        argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(inputs)]
        code = bench.spawn(argv)[-1]
        if code != 0:
            raise SystemExit(f"input generation failed with exit code {code}")
        # keep the most recently generated sets only
        sets = sorted(cache.iterdir(), key=lambda p: p.stat().st_mtime)
        for old in sets[:-CACHE_KEEP]:
            shutil.rmtree(old, ignore_errors=True)
    # read the records once so that no timed run pays for a cold page cache
    with open(inputs / RECORDS, "rb") as fh:
        while fh.read(1 << 22):
            pass
    return inputs, json.loads((inputs / META).read_text())


def layer_metrics(spans_doc: dict, scale: float, traced_wall: float, wall_s: float,
                  jobs1_wall: float) -> dict:
    """Per-layer self times from the span tree, plus the traced counts. The
    traced run's times are scaled by its `scale`, like the timed runs'."""
    spans = spans_doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent is not None:
            self_s[name] = self_s.get(name, 0.0) + ((end - start) - child_time[i]) * scale
    traced_total = traced_wall * scale
    metrics = {f"{name}_s": value for name, value in self_s.items()}
    for name in ("cli.import", "cli.digest", "geo.load", "geo.index", "ingest.read",
                 "ingest.stays", "engine.simulate", "aggregate.reduce", "aggregate.write",
                 "baseline.compare", "dump.write", "trace.probe"):
        metrics.setdefault(f"{name}_s", 0.0)
    counts = dict(spans_doc["counts"])
    metrics.update(counts)
    metrics["ingest.retained_ratio"] = counts["ingest.users_retained"] / max(1, counts["ingest.users_total"])
    metrics["engine.events_per_trace"] = counts["engine.events"] / max(1, counts["engine.traces"])
    metrics["trace.total_s"] = traced_total
    metrics["trace.unattributed_s"] = traced_total - sum(self_s.values())
    metrics["trace.overhead_s"] = traced_total - jobs1_wall
    # the probes are measurement only; the program does not pay for them
    metrics["cli.fanout_gap_s"] = wall_s - (traced_total - self_s.get("trace.probe", 0.0))
    return metrics


UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio", "_bytes": "bytes", "per_trace": "events/trace"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="v2grid pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "v2grid" / "cli.py").is_file():
        print("error: run from the repository root (src/v2grid not found)", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    bench = Bench(root, time.monotonic() + DEADLINE_S, WORK / "stderr.txt")
    inputs, meta = ensure_inputs(bench, wl.name, args.seed)
    work = WORK / "runs" / wl.name
    shutil.rmtree(work, ignore_errors=True)

    header_only = work / "header_only.csv"
    header_only.parent.mkdir(parents=True, exist_ok=True)
    header_only.write_text(RECORDS_HEADER, encoding="utf-8")
    empty = {"rows": 0, "skipped": 0, "users": 0}

    # The measured window holds everything but input generation: the
    # reference run, the set-up runs and the timed runs. Set-up runs
    # alternate with the first timed runs so that both sample the window.
    started = time.perf_counter()
    reference = None
    if wl.jobs != 1:
        flags = list(wl.flags)
        flags[flags.index("--jobs") + 1] = "1"
        reference = bench.v2grid_run("reference --jobs 1", inputs, inputs / RECORDS, flags,
                                     work / "reference", meta, wl.dumps)

    setup: list[Run] = []
    timed: list[Run] = []
    while True:
        want_setup = len(setup) < SETUP_REPS and len(setup) <= len(timed)
        done = len(setup) >= SETUP_REPS and len(timed) >= MIN_TIMED_RUNS
        last = (setup if want_setup else timed)[-1:]
        # start a run only if it is expected to end within the window
        expected_end = time.perf_counter() + (last[0].wall_s if last else 0.0)
        if done and expected_end - started > args.seconds:
            break
        if time.monotonic() > bench.deadline - 30:
            break
        if want_setup:
            setup.append(bench.v2grid_run("setup", inputs, header_only, wl.flags,
                                          work / "setup", empty, wl.dumps))
        else:
            timed.append(bench.v2grid_run(f"timed run {len(timed) + 1}", inputs,
                                          inputs / RECORDS, wl.flags, work / "timed", meta,
                                          wl.dumps))
    window_s = time.perf_counter() - started
    ok_digests = [r.digests for r in ([reference] if reference else []) + timed if r.ok]
    differing = sum(d != ok_digests[0] for d in ok_digests)
    if differing:
        bench.failed += differing
        bench.failures.append(f"{differing} timed runs' output digests differ from the "
                              + ("--jobs 1 reference run" if reference else "first run"))

    # times are scaled to the reference host speed and wall times freed of
    # steal (hostspeed.py), then the median is taken over the window's runs
    wall_s = statistics.median(r.wall_s * r.wall_scale for r in timed)
    results = {
        "wall_s": (wall_s, "s"),
        "rows_per_s": (meta["rows"] / wall_s, "rows/s"),
        "cpu_s": (statistics.median(r.cpu_s * r.cpu_scale for r in timed), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in timed), "MB"),
        "setup_s": (statistics.median(r.wall_s * r.wall_scale for r in setup), "s"),
    }
    print(f"workload {wl.name} seed {args.seed}: {meta['rows']} rows ({meta['skipped']} malformed), "
          f"{meta['users']} users; inputs generated in {meta['generate_s']:.2f} s")
    print(f"flags {' '.join(wl.flags)}; {len(timed)} timed runs over {window_s:.1f} s, "
          f"raw wall (speed scale, steal): {' '.join(f'{r.wall_s:.2f} ({r.cpu_scale:.2f}, {r.steal:.0%})' for r in timed)}; "
          f"{len(setup)} set-up runs: {' '.join(f'{r.wall_s:.2f} ({r.cpu_scale:.2f}, {r.steal:.0%})' for r in setup)}")
    for name, (value, unit) in results.items():
        print(f"  {name:<14} {value:14.4f} {unit}")

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in results.items()}
    if args.trace:
        spans_path = work / "spans.json"
        traced_out = work / "traced"
        argv_t = [sys.executable, str(HERE / "traced.py"), str(inputs / RECORDS),
                  str(inputs / AREAS), str(inputs / DEMAND), "--out-dir", str(traced_out),
                  "--spans-out", str(spans_path), *wl.flags]
        traced = bench.checked_run("traced run", argv_t, traced_out, meta, wl.dumps)
        if traced.ok:
            doc = json.loads(spans_path.read_text())
            jobs1_wall = reference.wall_s * reference.wall_scale if reference else wall_s
            layers = layer_metrics(doc, traced.wall_scale, traced.wall_s, wall_s, jobs1_wall)
            match = bool(ok_digests) and traced.digests == ok_digests[0]
            if not match:
                bench.failed += 1
                bench.failures.append("traced run's output digests differ from the timed runs'"
                                      if ok_digests else "no timed run passed to compare the "
                                      "traced run with")
            layers["trace.digest_match"] = int(match)
            layers["bench.generate_s"] = meta["generate_s"]
            # now that the traced run counted the retained users' stays,
            # hold the last timed run's stays.csv to that exact count
            if wl.dumps:
                problems = check_outputs(work / "timed", meta, True,
                                         doc["counts"]["ingest.stays_retained"])
                if problems:
                    bench.failed += 1
                    bench.failures.append("timed run vs traced stays: " + problems[0])
            print("per-layer (traced serial run; self times):")
            for name in sorted(layers):
                print(f"  {name:<26} {layers[name]:16.4f} {unit_of(name)}")
            metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
        else:
            metrics = {}

    fail_ratio = bench.failed / bench.attempted
    print(f"  {'fail_ratio':<14} {fail_ratio:14.4f} ratio ({bench.failed} of {bench.attempted} runs)")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not bench.failures
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced run of ``v2grid run``, for the per-layer numbers.

Runs the program's own ``cli.main``, serially (``--jobs 1``), with every
layer function that ``cmd_run`` calls wrapped in a span (name, start, end,
parent), and counts work at the same boundaries. Spans stay in memory and are
written to a JSON file at the end. Takes the ``v2grid run`` arguments plus
``--spans-out``:

    PYTHONPATH=src python perfbench/traced.py records.csv areas.geojson \
        demand.csv --out-dir OUT --spans-out spans.json [run flags]

The result files and the manifest are the CLI's own, so the benchmark's
checker applies to them. Spans named ``trace.probe`` are measurement only:
pickling each chunk's result to count the bytes a worker would ship, and
counting profile steps, polygon edges and retained stays.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

# layer span -> the names in v2grid.cli whose calls it times
LAYERS = {
    "geo.load": ("load_planning_areas",),
    "geo.index": ("build_area_index",),
    "ingest.read": ("read_records_csv",),
    "ingest.stays": ("ingest_trajectories",),
    "engine.simulate": ("day_range_of", "_simulate_chunk"),
    "aggregate.reduce": ("attach_sizing",),
    "aggregate.write": ("write_area_energy_csv", "write_area_peak_csv",
                        "write_area_profile_csv", "write_metrics_geojson"),
    "baseline.compare": ("read_demand_csv", "night_fraction", "household_baselines",
                         "coverage_and_stats", "write_coverage_csv",
                         "write_coverage_hist_csv", "write_regression_txt"),
    "dump.write": ("write_stays_csv", "write_events_csv"),
    "cli.digest": ("_sha256",),
}


class Tracer:
    def __init__(self, t0: float):
        self.spans = [["run", t0, None, None]]
        self._stack = [0]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, probe=None):
        """`fn` timed in a span `name`; `probe(result, *args)` runs after it
        in a nested ``trace.probe`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if probe is not None:
                    with self.span("trace.probe"):
                        probe(result, *args)
            return result

        return traced

    def close(self) -> list:
        self.spans[0][2] = time.perf_counter()
        return self.spans


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def instrument(tr: Tracer, counts: dict) -> None:
    """Wrap the layer functions ``cmd_run`` calls, in place."""
    from v2grid import aggregate, cli, engine

    def edges(areas):
        counts["geo.edges"] = sum(len(r) - 1 for a in areas for p in a.polygon for r in p)

    def cells(_index, grid, _areas):
        counts["geo.cells"] = grid.n_cells

    def after_read(_result, _path):
        counts["ingest.read_maxrss_mb"] = _maxrss_mb()

    def retained(result, *_):
        counts["ingest.stays_retained"] = sum(len(t.stays) for t in result[0].values())

    def chunk(result, _payload):
        counts["cli.chunks"] += 1
        counts["cli.result_bytes"] += len(pickle.dumps(result))

    def step_visits(_result, builder, events):
        # the profile steps AggregateBuilder.add_event loops over
        steps = builder.scaling.steps_per_day
        step_h = 24.0 / steps
        counts["aggregate.step_visits"] += sum(
            min(math.ceil(e.end_hour / step_h), steps) - math.floor(e.start_hour / step_h)
            for e in events if e.regime in engine.CHARGING_REGIMES
        )

    def area_days(result, _builder):
        # aggregates() follows the last chunk: the simulation's peak is in
        counts["engine.maxrss_mb"] = _maxrss_mb()
        counts["aggregate.area_days"] = len(result)

    probes = {
        "load_planning_areas": lambda result, _path: edges(result),
        "build_area_index": cells,
        "read_records_csv": after_read,
        "ingest_trajectories": retained,
        "_simulate_chunk": chunk,
    }
    for layer, names in LAYERS.items():
        for name in names:
            setattr(cli, name, tr.wrap(layer, getattr(cli, name), probes.get(name)))
    builder = aggregate.AggregateBuilder
    builder.add_events = tr.wrap("aggregate.reduce", builder.add_events, step_visits)
    builder.aggregates = tr.wrap("aggregate.reduce", builder.aggregates, area_days)


def traced_run(argv: list, tr: Tracer) -> dict:
    with tr.span("cli.import"):
        from v2grid import cli  # imports every layer, scipy included

    counts = {"cli.chunks": 0, "cli.result_bytes": 0, "aggregate.step_visits": 0}
    instrument(tr, counts)
    args = cli.build_parser().parse_args(["run"] + argv)
    args.jobs = 1  # serial, so every chunk runs in this process under the tracer
    code = cli.cmd_run(args)
    if code != 0:
        raise SystemExit(code)

    manifest = json.loads((Path(args.out_dir) / "manifest.json").read_text(encoding="utf-8"))
    c = manifest["counts"]
    counts.update({
        "ingest.rows": c["rows_read"] - c["rows_skipped"],
        "ingest.rows_skipped": c["rows_skipped"],
        "ingest.users_total": c["users_total"],
        "ingest.users_retained": c["users_retained"],
        "ingest.stays_emitted": c["stays"],
        "ingest.out_of_grid": manifest["warnings"]["records_out_of_grid"],
        "engine.traces": c["traces"],
        "engine.events": c["events"],
    })
    return counts


def main(argv: list) -> int:
    i = argv.index("--spans-out")
    out = Path(argv[i + 1])
    tr = Tracer(_T0)
    counts = traced_run(argv[:i] + argv[i + 2:], tr)
    spans = tr.close()
    out.write_text(json.dumps({"spans": spans, "counts": counts}) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""City-scale vehicle-to-grid supply and demand estimation from mobility traces.

The package turns anonymised location records into per-urban-area estimates
of battery-to-grid energy supply, peak charging demand, and the implied
charging infrastructure, under an uncoordinated solar-window charging scheme.
"""

__version__ = "0.1.0"

import importlib
import os
import sys

# OpenBLAS starts a spinning worker per extra CPU as numpy loads, and v2grid makes
# no threaded BLAS call: load numpy with one thread, unless the user set a count.
if "numpy" not in sys.modules and not os.environ.keys() & {
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"
}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
# every module of the package needs numpy: `import v2grid` loads it in either case
__import__("numpy")

# public name -> the module that defines it; each module is imported on the
# first access to one of its names, so `v2grid run` never loads `synth`
_MODULES = {
    "aggregate": (
        "AggregateBuilder", "AreaAggregate", "PvSupport", "ScalingConfig", "Sizing",
        "UNASSIGNED", "attach_sizing", "peak_density_and_sizing", "pv_sufficiency",
    ),
    "baseline": (
        "CoverageResult", "DemandCurve", "RegressionSummary", "coverage_and_stats",
        "household_baselines", "household_night_energy", "night_fraction",
        "read_demand_csv",
    ),
    "engine": (
        "ChargeEvent", "DayStay", "DepletionJump", "EventColumns", "PvWindow", "Regime",
        "SocTrace", "VehicleParams", "day_range_of", "drive_depletion_kwh",
        "run_scenario", "simulate_day", "simulate_user_days",
    ),
    "errors": (
        "InvalidConfigError", "InvalidGeometryError", "InvalidInputError",
        "InvariantViolationError", "MissingHouseholdDataError",
        "UndefinedFractionError", "V2GridError",
    ),
    "geo": (
        "AreaIndex", "CellId", "GridSpec", "PlanningArea", "build_area_index",
        "cell_distance_m", "cell_distances_m", "haversine_m", "load_planning_areas",
        "locate", "locate_many", "make_rect_area", "write_planning_areas_geojson",
    ),
    "ingest": (
        "IngestConfig", "IngestStats", "LocationRecord", "Records", "Stay",
        "StayColumns", "Trajectory", "extract_stays", "ingest_trajectories",
        "read_records_csv", "write_records_csv", "write_stays_csv",
    ),
    "synth": (
        "PlannedStay", "SynthConfig", "generate", "planted_trajectories",
        "synthetic_planning_areas", "user_stay_plan", "write_demand_curve_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})

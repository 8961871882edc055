"""City-scale vehicle-to-grid supply and demand estimation from mobility traces.

The package turns anonymised location records into per-urban-area estimates
of battery-to-grid energy supply, peak charging demand, and the implied
charging infrastructure, under an uncoordinated solar-window charging scheme.
"""

__version__ = "0.1.0"

from .aggregate import (
    AggregateBuilder,
    AreaAggregate,
    PvSupport,
    ScalingConfig,
    Sizing,
    UNASSIGNED,
    attach_sizing,
    peak_density_and_sizing,
    pv_sufficiency,
)
from .baseline import (
    CoverageResult,
    DemandCurve,
    HouseholdBaseline,
    RegressionSummary,
    coverage_and_stats,
    household_baselines,
    household_night_energy,
    night_fraction,
    read_demand_csv,
)
from .engine import (
    ChargeEvent,
    DayStay,
    DepletionJump,
    PvWindow,
    Regime,
    SocTrace,
    VehicleParams,
    day_range_of,
    drive_depletion_kwh,
    run_scenario,
    simulate_day,
    slice_trajectory_days,
)
from .errors import (
    DegenerateRegressorError,
    InvalidConfigError,
    InvalidGeometryError,
    InvalidInputError,
    InvariantViolationError,
    MissingHouseholdDataError,
    UndefinedFractionError,
    V2GridError,
)
from .geo import (
    AreaIndex,
    CellId,
    GridSpec,
    PlanningArea,
    build_area_index,
    cell_distance_m,
    haversine_m,
    load_planning_areas,
    locate,
    locate_many,
    make_rect_area,
    write_planning_areas_geojson,
)
from .ingest import (
    IngestConfig,
    IngestStats,
    LocationRecord,
    Records,
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
from .synth import (
    PlannedStay,
    SynthConfig,
    generate,
    planted_trajectories,
    synthetic_planning_areas,
    user_stay_plan,
    write_demand_curve_csv,
)

"""Synthetic city, end to end through the library API.

Generates records for 800 users over 7 days and extracts stays, then runs the
two stages of ``v2grid run`` that follow the read: ``cli.simulate`` simulates
every user-day and sums it per planning area, and ``cli.compare`` sets the
supply against household night demand. Prints the headline tables the CLI
would write as CSV.
"""

from v2grid import (
    GridSpec,
    IngestConfig,
    PvWindow,
    Records,
    ScalingConfig,
    SynthConfig,
    VehicleParams,
    build_area_index,
    generate,
    ingest_trajectories,
    night_fraction,
    peak_density_and_sizing,
    pv_sufficiency,
    synthetic_planning_areas,
)
from v2grid.baseline import DemandCurve
from v2grid.cli import compare, simulate
from v2grid.synth import synthetic_demand_curve_values

grid = GridSpec(origin_lat=1.25, origin_lon=103.7, cell_size_m=250.0, n_rows=40, n_cols=60)
cfg = SynthConfig.demo(grid, rng_seed=42, n_users=800, n_days=7)
params = VehicleParams()
window = PvWindow(9.0, 17.0)

print("generating records ...")
records = Records.from_records(generate(cfg, grid), grid)

icfg = IngestConfig(utc_offset_hours=8.0)
stays, stats = ingest_trajectories(records, icfg)
print(
    f"{len(records)} records -> {stats.stays_emitted} stays, "
    f"{stats.users_retained}/{stats.users_total} users retained"
)

areas = synthetic_planning_areas(grid, blocks_lat=2, blocks_lon=3, rng_seed=42)
index = build_area_index(grid, areas)
scaling = ScalingConfig(
    ev_penetration=0.03, observed_users=len(stays), population=200_000
)
days, aggregates, _, _, warnings = simulate(
    params, window, areas, index, stays, scaling, icfg.utc_offset_s
)
print(f"simulated {len(stays)} users x {len(days)} days "
      f"(scale factor delta/s = {scaling.scale:.3f})\n")

curve = DemandCurve(tuple(synthetic_demand_curve_values()))
frac = night_fraction(curve, window)
e_ev_mean, p_peak_max, _, coverage, _ = compare(areas, aggregates, len(days), frac, 30)

print(f"{'area':<6} {'mean E_ev kWh/d':>15} {'max peak kW':>12} "
      f"{'W/m2':>7} {'points/km2':>11}")
density: dict[str, float] = {}
for area in areas:
    e_mean, peak = e_ev_mean[area.area_id], p_peak_max[area.area_id]
    sizing = peak_density_and_sizing(peak, area.area_m2, params.charge_power_kw)
    density[area.area_id] = sizing.density_w_per_m2
    print(
        f"{area.area_id:<6} {e_mean:15.1f} {peak:12.1f} "
        f"{sizing.density_w_per_m2:7.3f} {sizing.points_per_km2:11.1f}"
    )

print(f"\nnight fraction of daily demand: {frac:.3f}")
print("coverage ratios (V2G supply / household night consumption):")
for area_id, ratio in coverage.ratios.items():
    print(f"  {area_id}: {100 * ratio:6.2f} %")
if coverage.stats:
    s = coverage.stats
    print(f"regression: r = {s.pearson_r:.3f}, slope = {s.ols_slope:.4f}, "
          f"R2 = {s.r_squared:.3f} (n = {s.n_points})")

support = pv_sufficiency(0.2, 0.25, 400.0, density)
print(f"\nlocal PV potential: {support.p_pv_w_per_m2:.1f} W/m2")
deficit = [a for a, flag in support.deficit_by_area.items() if flag]
print(f"areas above the PV potential: {deficit or 'none'}")
print(f"trips beyond remaining range (clamped): {warnings['range_exceeded_trips']}")

"""One user-day battery trace: morning commute, office solar charging,
evening errand, night discharge at home.

Writes soc_trace.png next to this script when matplotlib is available;
always prints the event table.
"""

from pathlib import Path

from v2grid import CellId, DayStay, GridSpec, PvWindow, VehicleParams, simulate_day
from v2grid.ingest import format_epoch

grid = GridSpec(origin_lat=1.25, origin_lon=103.7, cell_size_m=250.0, n_rows=40, n_cols=60)
params = VehicleParams()  # 25 kWh, 135 km, 6.6 kW, threshold 0.5
window = PvWindow(9.0, 17.0)

day = [
    DayStay(CellId(5, 5), 0.0, 8.0),     # home overnight
    DayStay(CellId(20, 30), 8.75, 17.5),  # office (solar window inside)
    DayStay(CellId(14, 22), 18.0, 19.5),  # mall errand
    DayStay(CellId(5, 5), 20.0, 24.0),    # home again
]

SEP_1_2020 = 18506  # 2020-09-01 as a local epoch-day: days since 1970-01-01
trace = simulate_day("commuter", SEP_1_2020, day, params, window, grid)

print(f"{format_epoch(trace.day)}: initial SOC {trace.soc_initial:.3f} -> final SOC {trace.soc_final:.3f}")
print(f"{len(trace.events)} events, {len(trace.depletion_jumps)} driving depletions\n")
print(f"{'regime':<13} {'start':>6} {'end':>6} {'kW':>5} {'kWh':>7}")
for ev in trace.events:
    print(
        f"{ev.regime.value:<13} {ev.start_hour:6.2f} {ev.end_hour:6.2f} "
        f"{ev.power_kw:5.1f} {ev.energy_kwh:7.3f}"
    )
print(f"\ntotal charged   {trace.charge_kwh:7.3f} kWh")
print(f"total discharged {trace.discharge_kwh:6.3f} kWh (fed back to the grid)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    ts = [t for t, _ in trace.breakpoints]
    socs = [s for _, s in trace.breakpoints]
    fig, ax = plt.subplots(figsize=(9, 4))
    ax.plot(ts, socs, lw=2)
    ax.axvspan(window.start_hour, window.end_hour, alpha=0.15, color="gold",
               label="solar window")
    ax.axhline(params.soc_threshold, ls="--", c="grey", lw=1, label="threshold")
    for st in day:
        ax.axvspan(st.start_hour, st.end_hour, alpha=0.08, color="steelblue")
    ax.set_xlim(0, 24)
    ax.set_ylim(0, 1.05)
    ax.set_xlabel("hour of day")
    ax.set_ylabel("state of charge")
    ax.legend(loc="lower right")
    out = Path(__file__).with_name("soc_trace.png")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    print(f"\nwrote {out}")

"""Grid binning and stay extraction on a hand-made day of pings.

A commuter pings from home, drives through a transit cell without stopping,
works for the day, stops at a mall, and returns home. Extraction keeps only
the places the user actually dwelled in.
"""

from datetime import datetime, timedelta, timezone

from v2grid import (
    CellId,
    GridSpec,
    IngestConfig,
    LocationRecord,
    Records,
    extract_stays,
    locate,
)

grid = GridSpec(origin_lat=1.25, origin_lon=103.7, cell_size_m=250.0, n_rows=40, n_cols=60)
cfg = IngestConfig(utc_offset_hours=8.0)

HOME = CellId(5, 5)
TRANSIT = CellId(10, 12)  # driven through, one ping only
WORK = CellId(20, 30)
MALL = CellId(14, 22)


def pings(cell: CellId, start: str, end: str, every_min: int = 15):
    lat, lon = grid.cell_centroid(cell)
    t0 = datetime.fromisoformat(f"2020-09-01T{start}:00+08:00")
    t1 = datetime.fromisoformat(f"2020-09-01T{end}:00+08:00")
    t = t0
    out = []
    while t <= t1:
        out.append(LocationRecord("commuter", t.astimezone(timezone.utc), lat, lon))
        t += timedelta(minutes=every_min)
    return out


records = (
    pings(HOME, "06:00", "08:30")
    + pings(TRANSIT, "08:47", "08:47")
    + pings(WORK, "09:05", "18:00")
    + pings(MALL, "18:25", "19:10")
    + pings(HOME, "19:40", "23:45")
)

print(f"{len(records)} pings over one day")
print(f"first ping lands in cell {locate(records[0].lat, records[0].lon, grid)}")
print()

stays = extract_stays(Records.from_records(records, grid), cfg)
LOCAL = timezone(timedelta(hours=8))
print(f"{len(stays)} stays of at least {cfg.tau_s / 3600.0:g} h extracted:")
for s in stays:
    print(
        f"  cell ({s.cell.row:2d},{s.cell.col:2d})  "
        f"{datetime.fromtimestamp(s.arrival, LOCAL):%H:%M} -> "
        f"{datetime.fromtimestamp(s.departure, LOCAL):%H:%M}  "
        f"({s.duration_s / 3600.0:.2f} h)"
    )
print()
print("the transit cell never shows up: one ping cannot satisfy the minimum stay")
print("the mall visit (45 min) is also below the 1 h minimum and is dropped")

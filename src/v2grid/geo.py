"""Spatial primitives: regular analysis grid, planning-area polygons, and the
assignment of grid cells to areas.

Coordinates are WGS84 degrees. Binning uses an equirectangular local
projection anchored at the grid origin (adequate at city scale); distances
between cells use the haversine great-circle formula on cell centroids.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidGeometryError, InvalidInputError

EARTH_RADIUS_M = 6371008.8


class CellId(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class GridSpec:
    """Regular square grid anchored at its south-west corner.

    Rows count northward from ``origin_lat``, columns eastward from
    ``origin_lon``. Cell extents are half-open, so a point exactly on the
    northern or eastern boundary of the grid is out of bounds.
    """

    origin_lat: float
    origin_lon: float
    cell_size_m: float = 250.0
    n_rows: int = 1
    n_cols: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.origin_lat) and math.isfinite(self.origin_lon)):
            raise InvalidInputError("grid origin coordinates must be finite")
        if not -90.0 <= self.origin_lat <= 90.0:
            raise InvalidInputError("grid origin latitude must lie in [-90, 90]")
        if not (math.isfinite(self.cell_size_m) and self.cell_size_m > 0):
            raise InvalidInputError("cell_size_m must be finite and positive")
        if self.n_rows < 1 or self.n_cols < 1:
            raise InvalidInputError("grid needs at least one row and one column")
        if self.n_rows * self.n_cols >= 2**63:  # ingest codes a cell in one int64
            raise InvalidInputError("grid has 2**63 cells or more")

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    def project(self, lat: float, lon: float) -> tuple[float, float]:
        """Meters east (x) and north (y) of the grid origin."""
        x = EARTH_RADIUS_M * math.radians(lon - self.origin_lon) * math.cos(
            math.radians(self.origin_lat)
        )
        y = EARTH_RADIUS_M * math.radians(lat - self.origin_lat)
        return x, y

    def unproject(self, x: float, y: float) -> tuple[float, float]:
        """Inverse of :meth:`project`; returns (lat, lon)."""
        lat = self.origin_lat + math.degrees(y / EARTH_RADIUS_M)
        lon = self.origin_lon + math.degrees(
            x / (EARTH_RADIUS_M * math.cos(math.radians(self.origin_lat)))
        )
        return lat, lon

    def contains(self, cell: CellId) -> bool:
        return 0 <= cell.row < self.n_rows and 0 <= cell.col < self.n_cols

    def contains_all(self, rows: np.ndarray, cols: np.ndarray) -> bool:
        """Whether every (rows[i], cols[i]) is a cell of the grid."""
        outside = (rows < 0) | (rows >= self.n_rows) | (cols < 0) | (cols >= self.n_cols)
        return not np.any(outside)

    def cell_centroid(self, cell: CellId) -> tuple[float, float]:
        if not self.contains(cell):
            raise InvalidInputError(f"cell {cell} outside grid bounds")
        x = (cell.col + 0.5) * self.cell_size_m
        y = (cell.row + 0.5) * self.cell_size_m
        return self.unproject(x, y)

    def bounds_projected(self) -> tuple[float, float]:
        """Grid extent in meters (width east, height north)."""
        return self.n_cols * self.cell_size_m, self.n_rows * self.cell_size_m


def locate(lat: float, lon: float, grid: GridSpec) -> Optional[CellId]:
    """Cell containing a point, or None when the point falls outside the grid.

    Each cell covers the half-open square [origin + i*cell, origin + (i+1)*cell)
    in projected meters.
    """
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise InvalidInputError(f"non-finite coordinates ({lat}, {lon})")
    x, y = grid.project(lat, lon)
    col = math.floor(x / grid.cell_size_m)
    row = math.floor(y / grid.cell_size_m)
    if 0 <= row < grid.n_rows and 0 <= col < grid.n_cols:
        return CellId(int(row), int(col))
    return None


def locate_many(
    lats: np.ndarray, lons: np.ndarray, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`locate`. Returns (rows, cols); out-of-grid entries are -1."""
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if not (np.all(np.isfinite(lats)) and np.all(np.isfinite(lons))):
        raise InvalidInputError("non-finite coordinates in input")
    cos0 = math.cos(math.radians(grid.origin_lat))
    x = EARTH_RADIUS_M * np.radians(lons - grid.origin_lon) * cos0
    y = EARTH_RADIUS_M * np.radians(lats - grid.origin_lat)
    cols = np.floor(x / grid.cell_size_m).astype(np.int64)
    rows = np.floor(y / grid.cell_size_m).astype(np.int64)
    bad = (rows < 0) | (rows >= grid.n_rows) | (cols < 0) | (cols >= grid.n_cols)
    rows[bad] = -1
    cols[bad] = -1
    return rows, cols


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def cell_distance_m(a: CellId, b: CellId, grid: GridSpec) -> float:
    """Great-circle distance between two cell centroids. Zero iff a == b."""
    if not (grid.contains(a) and grid.contains(b)):
        raise InvalidInputError("cells must lie inside the grid")
    if a == b:
        return 0.0
    lat, lon = _centroid_axes(grid)
    return haversine_m(lat[a.row], lon[a.col], lat[b.row], lon[b.col])


def cell_distances_m(
    rows_a: np.ndarray, cols_a: np.ndarray, rows_b: np.ndarray, cols_b: np.ndarray,
    grid: GridSpec,
) -> np.ndarray:
    """:func:`cell_distance_m` of each pair of cells (rows_a[i], cols_a[i]) and
    (rows_b[i], cols_b[i]), to the bit.

    Each distinct pair takes :func:`haversine_m`'s operations in its order,
    with `math`'s functions mapped over the pairs (numpy's sin, cos and
    arcsin may differ from them in the last place) and numpy doing only the
    arithmetic and the comparison, which it rounds as Python does. A row's
    latitude in radians and its cosine are taken once per row.
    """
    if not (grid.contains_all(rows_a, cols_a) and grid.contains_all(rows_b, cols_b)):
        raise InvalidInputError("cells must lie inside the grid")

    def each(fn, *args) -> np.ndarray:
        return np.fromiter(map(fn, *(a.tolist() for a in args)), np.float64, len(args[0]))

    n, n_cols = grid.n_cells, grid.n_cols
    pairs, inverse = np.unique(
        (rows_a * n_cols + cols_a) * n + rows_b * n_cols + cols_b, return_inverse=True
    )
    a, b = np.divmod(pairs, n)
    lat, lon = _centroid_axes(grid)
    rows, row_of = np.unique(np.concatenate([a // n_cols, b // n_cols]), return_inverse=True)
    phi = each(math.radians, lat[rows])
    cos_phi = each(math.cos, phi)
    p1, p2 = phi[row_of[:len(a)]], phi[row_of[len(a):]]
    cos1, cos2 = cos_phi[row_of[:len(a)]], cos_phi[row_of[len(a):]]
    dl = each(math.radians, lon[b % n_cols] - lon[a % n_cols])
    two = np.full(len(a), 2)
    h = (each(pow, each(math.sin, (p2 - p1) / 2), two)
         + cos1 * cos2 * each(pow, each(math.sin, dl / 2), two))
    root = each(math.sqrt, h)
    distances = 2.0 * EARTH_RADIUS_M * each(math.asin, np.where(root < 1.0, root, 1.0))
    return np.where(a == b, 0.0, distances)[inverse]


# ---------------------------------------------------------------------------
# Planning areas
# ---------------------------------------------------------------------------

# Polygon layout: tuple of parts (a MultiPolygon has several), each part a
# tuple of rings (exterior first, holes after), each ring an (k, 2) float
# array of (lat, lon) rows with the first row repeated at the end.
Ring = np.ndarray
PolygonParts = tuple[tuple[Ring, ...], ...]

_MAX_ON_EDGE_TESTS = 1 << 18  # per batch, which bounds peak memory


def _normalise_ring(ring: Sequence[Sequence[float]]) -> Ring:
    arr = np.asarray(ring, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidGeometryError("ring must be a sequence of (lat, lon) pairs")
    if not np.all(np.abs(arr) <= (90.0, 180.0)):  # False for NaN too
        raise InvalidGeometryError("ring vertex out of range or not finite")
    if len(arr) >= 2 and bool(np.all(arr[0] == arr[-1])):
        closed = arr
    else:
        closed = np.vstack([arr, arr[:1]])
    # distinct vertices excluding the closing repeat
    if len(set(map(tuple, closed[:-1].tolist()))) < 3:
        raise InvalidGeometryError("degenerate polygon ring (fewer than 3 vertices)")
    return closed


@dataclass(frozen=True)
class PlanningArea:
    """Urban planning polygon used as the aggregation unit."""

    area_id: str
    name: str
    polygon: PolygonParts
    area_m2: float
    households: Optional[int] = None
    monthly_kwh_per_household: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.area_id:
            raise InvalidInputError("area_id must be non-empty")
        if not self.area_m2 > 0:
            raise InvalidInputError(f"area {self.area_id}: area_m2 must be positive")
        # json reads Infinity and NaN, and either would run through to
        # non-finite coverage ratios and statistics
        for key in ("households", "monthly_kwh_per_household"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise InvalidInputError(
                    f"area {self.area_id}: {key} must be finite and >= 0"
                )
        parts = tuple(
            tuple(_normalise_ring(ring) for ring in part) for part in self.polygon
        )
        if not parts or any(len(part) == 0 for part in parts):
            raise InvalidGeometryError(f"area {self.area_id}: empty polygon")
        object.__setattr__(self, "polygon", parts)

    @property
    def has_household_data(self) -> bool:
        return (
            self.households is not None and self.monthly_kwh_per_household is not None
        )


def make_rect_area(
    area_id: str,
    lat_min: float,
    lat_max: float,
    lon_min: float,
    lon_max: float,
    area_m2: float,
    **kwargs,
) -> PlanningArea:
    """Convenience constructor for an axis-aligned rectangular area."""
    ring = [
        (lat_min, lon_min),
        (lat_min, lon_max),
        (lat_max, lon_max),
        (lat_max, lon_min),
        (lat_min, lon_min),
    ]
    return PlanningArea(area_id=area_id, name=kwargs.pop("name", area_id),
                        polygon=((ring,),), area_m2=area_m2, **kwargs)


class AreaIndex:
    """Mapping from grid cells to planning-area ids.

    Each cell is assigned by testing its centroid against the area polygons in
    lexicographic area_id order, so centroids on shared boundaries land in the
    lexicographically lowest area. Cells outside every polygon map to None.
    """

    def __init__(self, grid: GridSpec, codes: np.ndarray, area_ids: list[str]):
        self.grid = grid
        self._codes = codes
        self._area_ids = area_ids

    def area_of(self, cell: CellId) -> Optional[str]:
        if not self.grid.contains(cell):
            raise InvalidInputError(f"cell {cell} outside grid bounds")
        code = self._codes[cell.row, cell.col]
        return None if code < 0 else self._area_ids[code]

    @property
    def area_ids(self) -> list[str]:
        """Area ids in code order, which is sorted order."""
        return self._area_ids

    def area_codes(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The index into `area_ids` of each cell's area, -1 for none."""
        if not self.grid.contains_all(rows, cols):
            raise InvalidInputError("cell outside grid bounds")
        return self._codes[rows, cols]

    @property
    def n_unassigned(self) -> int:
        return int(np.count_nonzero(self._codes < 0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AreaIndex)
            and self.grid == other.grid
            and self._area_ids == other._area_ids
            and bool(np.array_equal(self._codes, other._codes))
        )


@functools.lru_cache(maxsize=4)
def _centroid_axes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Centroid latitude of each row and longitude of each column, both
    non-decreasing (each step is monotone for |origin_lat| <= 90) and equal
    to :meth:`GridSpec.cell_centroid` to the bit. Cached per grid, so the
    arrays are read-only."""
    y = (np.arange(grid.n_rows, dtype=np.float64) + 0.5) * grid.cell_size_m
    x = (np.arange(grid.n_cols, dtype=np.float64) + 0.5) * grid.cell_size_m
    lat = grid.origin_lat + np.degrees(y / EARTH_RADIUS_M)
    lon = grid.origin_lon + np.degrees(
        x / (EARTH_RADIUS_M * math.cos(math.radians(grid.origin_lat)))
    )
    lat.flags.writeable = lon.flags.writeable = False
    return lat, lon


def _spans(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with first[i] <= j < stop[i], ordered by i, then j."""
    counts = stop - first
    owner = np.repeat(np.arange(len(counts)), counts)
    offsets = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - offsets[owner] + first[owner]


def _part_hits(lat: np.ndarray, lon: np.ndarray, part: tuple[Ring, ...]) -> np.ndarray:
    """Boundary-inclusive even-odd test of every cell centroid against one
    polygon part (exterior and holes), as a (rows, cols) mask.

    Both tests evaluate the same float expressions per (edge, centroid) as a
    point-by-point test would, only for the centroids where they can hold.
    """
    y0, x0, y1, x1 = np.concatenate([np.hstack([r[:-1], r[1:]]) for r in part]).T
    # an edge crosses row r when min(y0, y1) <= lat[r] < max(y0, y1); the
    # crossing flips the parity of the columns [0, k) with lon < x_at
    e, r = _spans(np.searchsorted(lat, np.minimum(y0, y1)),
                  np.searchsorted(lat, np.maximum(y0, y1)))
    x_at = x0[e] + (lat[r] - y0[e]) * (x1[e] - x0[e]) / (y1[e] - y0[e])
    crossings = np.zeros((len(lat), len(lon) + 1), dtype=np.int64)
    np.add.at(crossings, (r, np.searchsorted(lon, x_at)), 1)
    inside = np.cumsum(crossings[:, :0:-1], axis=1)[:, ::-1] % 2 == 1

    # centroids on an edge, tested only inside its eps-widened bounding box
    eps = 1e-12  # degrees
    dy, dx = y1 - y0, x1 - x0
    col_first = np.searchsorted(lon, np.minimum(x0, x1) - eps, "left")
    col_stop = np.searchsorted(lon, np.maximum(x0, x1) + eps, "right")
    box_e, box_r = _spans(np.searchsorted(lat, np.minimum(y0, y1) - eps, "left"),
                          np.searchsorted(lat, np.maximum(y0, y1) + eps, "right"))
    ends = np.cumsum(col_stop[box_e] - col_first[box_e])
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_MAX_ON_EDGE_TESTS, total, _MAX_ON_EDGE_TESTS))
    for row_e, row_r in zip(np.split(box_e, cuts), np.split(box_r, cuts)):
        i, c = _spans(col_first[row_e], col_stop[row_e])
        e, r = row_e[i], row_r[i]
        on = np.abs(dx[e] * (lat[r] - y0[e]) - dy[e] * (lon[c] - x0[e])) <= eps
        inside[r[on], c[on]] = True
    return inside


def build_area_index(grid: GridSpec, areas: Iterable[PlanningArea]) -> AreaIndex:
    """Assign every cell centroid to a planning area (or none)."""
    ordered = sorted(areas, key=lambda a: a.area_id)
    ids = [a.area_id for a in ordered]
    if len(set(ids)) != len(ids):
        raise InvalidInputError("duplicate area_id in planning areas")
    lat, lon = _centroid_axes(grid)
    codes = np.full((grid.n_rows, grid.n_cols), -1, dtype=np.int32)
    for i, area in enumerate(ordered):
        open_mask = codes < 0
        if not np.any(open_mask):
            break
        hit = np.logical_or.reduce([_part_hits(lat, lon, part) for part in area.polygon])
        codes[open_mask & hit] = i
    return AreaIndex(grid, codes, ids)


# ---------------------------------------------------------------------------
# GeoJSON planning-area interchange
# ---------------------------------------------------------------------------

def _geojson_polygon_parts(geometry: dict) -> PolygonParts:
    gtype = geometry.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        raise InvalidGeometryError(f"unsupported geometry type {gtype!r}")
    try:
        coordinates = geometry["coordinates"]
        raw_parts = [coordinates] if gtype == "Polygon" else coordinates
        # GeoJSON positions are (lon, lat); flip to internal (lat, lon)
        return tuple(
            tuple(np.asarray([(pt[1], pt[0]) for pt in ring], dtype=np.float64) for ring in part)
            for part in raw_parts
        )
    except (TypeError, ValueError, LookupError) as exc:
        raise InvalidInputError(
            f"{gtype} coordinates are not lists of (lon, lat) positions: {exc!r}"
        ) from exc


def load_planning_areas(path) -> list[PlanningArea]:
    """Read a GeoJSON FeatureCollection of planning areas.

    Required feature properties: area_id (string), area_m2 (number).
    Optional: name, households, monthly_kwh_per_household.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"planning areas file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise InvalidInputError("planning areas file must be a FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise InvalidInputError("planning areas file: features must be a JSON array")
    areas = []
    for feat in features:
        feat = _json_object(feat, "planning-area feature")
        props = _json_object(feat.get("properties") or {}, "feature properties")
        if "area_id" not in props or props.get("area_m2") is None:
            raise InvalidInputError(
                "each planning-area feature needs area_id and area_m2 properties"
            )
        area_id = str(props["area_id"])
        areas.append(
            PlanningArea(
                area_id=area_id,
                name=str(props.get("name", area_id)),
                polygon=_geojson_polygon_parts(
                    _json_object(feat.get("geometry") or {}, "feature geometry")
                ),
                area_m2=_number_property(props, "area_m2", float, area_id),
                households=_number_property(props, "households", int, area_id),
                monthly_kwh_per_household=_number_property(
                    props, "monthly_kwh_per_household", float, area_id
                ),
            )
        )
    return areas


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidInputError(
            f"planning areas file: {what} is a JSON {type(value).__name__}, not an object"
        )
    return value


def _number_property(props: dict, key: str, kind, area_id: str):
    """`kind(props[key])`, None when the property is absent or null."""
    value = props.get(key)
    if value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"area {area_id}: {key} is not a number: {value!r}") from exc


def planning_area_feature(area: PlanningArea, extra_properties: Optional[dict] = None) -> dict:
    """GeoJSON Feature for one area (geometry echoed back in lon/lat order)."""
    parts = [
        [ring[:, ::-1].tolist() for ring in part]
        for part in area.polygon
    ]
    geometry = (
        {"type": "Polygon", "coordinates": parts[0]}
        if len(parts) == 1
        else {"type": "MultiPolygon", "coordinates": parts}
    )
    props = {
        "area_id": area.area_id,
        "name": area.name,
        "area_m2": area.area_m2,
    }
    if area.households is not None:
        props["households"] = area.households
    if area.monthly_kwh_per_household is not None:
        props["monthly_kwh_per_household"] = area.monthly_kwh_per_household
    if extra_properties:
        props.update(extra_properties)
    return {"type": "Feature", "geometry": geometry, "properties": props}


def write_feature_collection(features: list[dict], path) -> None:
    """A compact GeoJSON FeatureCollection with sorted keys, one line."""
    doc = {"type": "FeatureCollection", "features": features}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # json.dump always encodes in Python; dumps takes the C encoder
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def write_planning_areas_geojson(areas: Iterable[PlanningArea], path) -> None:
    write_feature_collection(
        [planning_area_feature(a) for a in sorted(areas, key=lambda a: a.area_id)], path
    )

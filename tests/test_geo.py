"""Grid binning, centroid distances, and area assignment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from v2grid import (
    CellId,
    GridSpec,
    InvalidGeometryError,
    InvalidInputError,
    PlanningArea,
    build_area_index,
    cell_distance_m,
    cell_distances_m,
    haversine_m,
    load_planning_areas,
    locate,
    locate_many,
    make_rect_area,
    write_planning_areas_geojson,
)
from v2grid import geo
from v2grid.geo import EARTH_RADIUS_M, _centroid_axes
from oracles import build_area_index_per_area, points_in_polygon


class TestLocate:
    def test_origin_maps_to_cell_zero(self, grid):
        assert locate(grid.origin_lat, grid.origin_lon, grid) == CellId(0, 0)

    def test_half_open_boundary_arithmetic(self, grid):
        # 260 m east and 10 m north of the origin, 250 m cells -> column 1
        lat, lon = grid.unproject(260.0, 10.0)
        assert locate(lat, lon, grid) == CellId(0, 1)

    def test_point_west_of_origin_is_out_of_bounds(self, grid):
        lat, lon = grid.unproject(-1.0, 10.0)
        assert locate(lat, lon, grid) is None

    def test_non_finite_coordinates_rejected(self, grid):
        with pytest.raises(InvalidInputError):
            locate(float("nan"), 0.0, grid)
        with pytest.raises(InvalidInputError):
            locate(0.0, float("inf"), grid)

    def test_locate_many_matches_scalar(self, grid):
        rng = np.random.default_rng(11)
        w, h = grid.bounds_projected()
        xs = rng.uniform(-100.0, w + 100.0, size=300)
        ys = rng.uniform(-100.0, h + 100.0, size=300)
        lats, lons = zip(*(grid.unproject(x, y) for x, y in zip(xs, ys)))
        rows, cols = locate_many(np.array(lats), np.array(lons), grid)
        for lat, lon, r, c in zip(lats, lons, rows, cols):
            cell = locate(lat, lon, grid)
            assert cell == (None if r < 0 else CellId(int(r), int(c)))

    def test_centroid_of_located_cell_is_near_the_point(self, grid):
        # total on the bounding box; centroid within cell * sqrt(2)/2
        rng = np.random.default_rng(7)
        w, h = grid.bounds_projected()
        for _ in range(200):
            x, y = rng.uniform(0, w), rng.uniform(0, h)
            lat, lon = grid.unproject(x, y)
            cell = locate(lat, lon, grid)
            assert cell is not None
            cx, cy = grid.project(*grid.cell_centroid(cell))
            assert math.hypot(cx - x, cy - y) <= grid.cell_size_m * math.sqrt(2) / 2 + 1e-6


class TestCellDistance:
    def test_identity(self, grid):
        assert cell_distance_m(CellId(3, 3), CellId(3, 3), grid) == 0.0

    def test_horizontally_adjacent_cells_near_equator(self, grid):
        # centroids 250 m apart on the equatorial grid
        d = cell_distance_m(CellId(0, 0), CellId(0, 1), grid)
        assert d == pytest.approx(250.0, abs=1.0)

    def test_diagonal_neighbours_near_equator(self, grid):
        # 250 * sqrt(2) = 353.55 m
        d = cell_distance_m(CellId(0, 0), CellId(1, 1), grid)
        assert d == pytest.approx(353.6, abs=1.0)

    def test_out_of_bounds_rejected(self, grid):
        with pytest.raises(InvalidInputError):
            cell_distance_m(CellId(0, 0), CellId(99, 0), grid)

    def test_symmetry_and_triangle_inequality(self, grid):
        rng = np.random.default_rng(5)
        cells = [
            CellId(int(r), int(c))
            for r, c in zip(
                rng.integers(0, grid.n_rows, 30), rng.integers(0, grid.n_cols, 30)
            )
        ]
        for a, b, c in zip(cells, cells[1:], cells[2:]):
            ab = cell_distance_m(a, b, grid)
            ba = cell_distance_m(b, a, grid)
            assert ab == pytest.approx(ba, abs=1e-9)
            ac = cell_distance_m(a, c, grid)
            bc = cell_distance_m(b, c, grid)
            assert ac <= ab + bc + 1e-6

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_column_distances_equal_the_scalar_ones(self, data):
        grid = GridSpec(
            data.draw(st.sampled_from([-89.9, -33.9, 0.0, 1.22, 60.0, 89.0]) | st.floats(-90, 90)),
            data.draw(st.sampled_from([-180.0, 0.0, 103.6, 179.9]) | st.floats(-180, 180)),
            data.draw(st.sampled_from([100.0, 250.0, 5000.0])),
            data.draw(st.integers(1, 50)),
            data.draw(st.integers(1, 50)),
        )
        cell = st.builds(CellId, st.integers(0, grid.n_rows - 1), st.integers(0, grid.n_cols - 1))
        # repeated pairs and pairs of one cell among them
        pairs = data.draw(st.lists(
            st.tuples(cell, cell) | cell.map(lambda c: (c, c)), min_size=1, max_size=40,
        ))
        pairs += pairs[: data.draw(st.integers(0, len(pairs)))]
        (rows_a, cols_a), (rows_b, cols_b) = (
            np.array([p[k] for p in pairs], dtype=np.int64).T for k in (0, 1)
        )
        got = cell_distances_m(rows_a, cols_a, rows_b, cols_b, grid).tolist()
        assert got == [cell_distance_m(a, b, grid) for a, b in pairs]

    def test_column_distances_reject_cells_outside_the_grid(self, grid):
        inside, outside = np.array([0]), np.array([grid.n_rows])
        with pytest.raises(InvalidInputError):
            cell_distances_m(inside, inside, outside, inside, grid)


def _square(area_id: str, lat0, lat1, lon0, lon1, **kw) -> PlanningArea:
    return make_rect_area(area_id, lat_min=lat0, lat_max=lat1, lon_min=lon0,
                          lon_max=lon1, area_m2=1.0, **kw)


class TestAreaIndex:
    def test_single_area_covering_grid_maps_every_cell(self, grid):
        w, h = grid.bounds_projected()
        lat1, lon1 = grid.unproject(w + 10, h + 10)
        area = _square("A01", grid.origin_lat - 0.01, lat1, grid.origin_lon - 0.01, lon1)
        index = build_area_index(grid, [area])
        assert index.n_unassigned == 0
        assert index.area_of(CellId(0, 0)) == "A01"
        assert index.area_of(CellId(grid.n_rows - 1, grid.n_cols - 1)) == "A01"

    def test_cell_outside_all_polygons_maps_to_none(self, grid):
        lat1, lon1 = grid.unproject(400.0, 400.0)
        area = _square("A01", grid.origin_lat, lat1, grid.origin_lon, lon1)
        index = build_area_index(grid, [area])
        assert index.area_of(CellId(0, 0)) == "A01"
        assert index.area_of(CellId(10, 10)) is None
        assert index.n_unassigned == grid.n_cells - 4

    def test_shared_edge_tie_breaks_to_lowest_area_id(self, grid):
        # the centroid of cell (0, 1) lies exactly on the shared boundary when
        # the split is at x = 375 m; both rectangles then claim it
        w, h = grid.bounds_projected()
        lat_n, _ = grid.unproject(0.0, h)
        _, lon_split = grid.unproject(375.0, 0.0)
        _, lon_e = grid.unproject(w, 0.0)
        a = _square("A02", grid.origin_lat, lat_n, grid.origin_lon, lon_split)
        b = _square("A01", grid.origin_lat, lat_n, lon_split, lon_e)
        index = build_area_index(grid, [a, b])
        lat_c, lon_c = grid.cell_centroid(CellId(0, 1))
        assert points_in_polygon(np.array([lat_c]), np.array([lon_c]), a.polygon)[0]
        assert points_in_polygon(np.array([lat_c]), np.array([lon_c]), b.polygon)[0]
        assert index.area_of(CellId(0, 1)) == "A01"

    def test_deterministic_across_runs(self, grid):
        lat1, lon1 = grid.unproject(2000.0, 3000.0)
        areas = [
            _square("A01", grid.origin_lat, lat1, grid.origin_lon, lon1),
            _square("A02", grid.origin_lat, lat1, lon1, lon1 + 0.01),
        ]
        first = build_area_index(grid, areas)
        second = build_area_index(grid, list(reversed(areas)))
        assert first == second

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(InvalidGeometryError):
            PlanningArea(
                area_id="BAD", name="bad",
                polygon=(([(0.0, 0.0), (0.0, 1.0)],),), area_m2=1.0,
            )

    @pytest.mark.parametrize(
        "ring",
        [
            [(0.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0)],
            [(0.0, 0.0), (0.0, 1.0), (-0.0, 0.0), (0.0, 1.0), (0.0, -0.0)],
        ],
        ids=["two_of_four", "signed_zeros"],
    )
    def test_ring_with_two_distinct_vertices_rejected(self, ring):
        with pytest.raises(InvalidGeometryError):
            PlanningArea(area_id="BAD", name="bad", polygon=((ring,),), area_m2=1.0)

    @pytest.mark.parametrize(
        "vertex", [(float("nan"), 1.0), (1.0, float("inf")), (95.0, 1.0), (1.0, -180.5)],
        ids=["nan", "inf", "lat_95", "lon_-180.5"],
    )
    def test_non_finite_or_out_of_range_vertex_rejected(self, vertex):
        with pytest.raises(InvalidGeometryError):
            PlanningArea(
                area_id="BAD", name="bad",
                polygon=(([(0.0, 0.0), (0.0, 1.0), vertex],),), area_m2=1.0,
            )

    def test_mapped_centroids_lie_inside_their_area(self, grid):
        lat1, lon1 = grid.unproject(2000.0, 2000.0)
        lat2, lon2 = grid.unproject(4000.0, 4000.0)
        areas = [
            _square("A01", grid.origin_lat, lat1, grid.origin_lon, lon1),
            _square("A02", lat1, lat2, lon1, lon2),
        ]
        index = build_area_index(grid, areas)
        by_id = {a.area_id: a for a in areas}
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                aid = index.area_of(CellId(r, c))
                if aid is None:
                    continue
                lat, lon = grid.cell_centroid(CellId(r, c))
                assert points_in_polygon(
                    np.array([lat]), np.array([lon]), by_id[aid].polygon
                )[0]


@st.composite
def grids_and_areas(draw):
    """A grid of 1-15 rows and columns and 1-4 areas of 1-2 parts of 1-2
    rings. Vertices lie on centroids, halfway between them, beyond the grid
    or at the ends of the coordinate ranges; a vertex may keep the latitude
    of the one before it (a horizontal edge, often through a centroid row)
    or be shared with other areas."""
    grid = GridSpec(
        draw(st.sampled_from([-45.0, 0.0, 1.25, 59.9])),
        draw(st.sampled_from([-120.0, 0.0, 103.7])),
        draw(st.sampled_from([100.0, 250.0, 1000.0])),
        draw(st.integers(1, 15)),
        draw(st.integers(1, 15)),
    )
    lat, lon = _centroid_axes(grid)
    d_lat = math.degrees(grid.cell_size_m / EARTH_RADIUS_M)
    d_lon = d_lat / math.cos(math.radians(grid.origin_lat))
    lats = [*lat.tolist(), *(lat + d_lat / 2).tolist(),
            lat[0] - 2 * d_lat, lat[-1] + 2 * d_lat, -90.0, 90.0]
    lons = [*lon.tolist(), *(lon + d_lon / 2).tolist(),
            lon[0] - 2 * d_lon, lon[-1] + 2 * d_lon, -180.0, 180.0]
    vertex = st.tuples(st.sampled_from(lats), st.sampled_from(lons))
    shared = draw(st.lists(vertex, min_size=2, max_size=4))
    any_vertex = st.one_of(vertex, st.sampled_from(shared))

    def ring():
        points = []
        for (la, lo), same_row in draw(
            st.lists(st.tuples(any_vertex, st.booleans()), min_size=3, max_size=7)
        ):
            points.append((points[-1][0] if same_row and points else la, lo))
        assume(len(set(points)) >= 3)
        return points

    def polygon():
        return tuple(
            tuple(ring() for _ in range(draw(st.integers(1, 2))))
            for _ in range(draw(st.integers(1, 2)))
        )

    ids = draw(st.permutations(["A1", "A2", "A3", "A4"]))[: draw(st.integers(1, 4))]
    return grid, [PlanningArea(aid, aid, polygon(), area_m2=1.0) for aid in ids]


# The edge from the south pole crosses row 1 at exactly the longitude of
# column 1, yet the on-edge cross product of that centroid rounds to 7e-12,
# above the 1e-12 tolerance: only the even-odd test decides the cell, and it
# must not count a crossing at the centroid's own longitude.
LONG_EDGE = (
    GridSpec(59.9, 179.0, 250.0, 3, 3),
    [PlanningArea("A1", "A1", (([(-90.0, -117.5), (60.403372451363964, 179.99571742620955),
                                 (60.403372451363964, 180.0)],),), area_m2=1.0)],
)


class TestScanlineIndex:
    @settings(max_examples=300, deadline=None)
    @given(case=grids_and_areas())
    @example(case=LONG_EDGE)
    def test_equals_the_per_area_oracle(self, case):
        grid, areas = case
        assert build_area_index(grid, areas) == build_area_index_per_area(grid, areas)

    def test_on_edge_tests_in_many_batches(self, grid, monkeypatch):
        # edges through centroids (the equatorial lattice has equal steps, so
        # the diagonal too), tested three cells at a time
        lat, lon = _centroid_axes(grid)
        diagonal = [(lat[0], lon[0]), (lat[15], lon[15]), (lat[0], lon[15])]
        areas = [
            _square("A01", lat[2], lat[9], lon[3], lon[12]),
            PlanningArea("A02", "A02", ((diagonal,),), area_m2=1.0),
        ]
        monkeypatch.setattr(geo, "_MAX_ON_EDGE_TESTS", 3)
        assert build_area_index(grid, areas) == build_area_index_per_area(grid, areas)


class TestPolygonWithHole:
    def test_even_odd_excludes_hole(self):
        outer = [(0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0), (0.0, 0.0)]
        hole = [(4.0, 4.0), (4.0, 6.0), (6.0, 6.0), (6.0, 4.0), (4.0, 4.0)]
        area = PlanningArea("H01", "holed", ((outer, hole),), area_m2=1.0)
        lats = np.array([5.0, 2.0, 11.0])
        lons = np.array([5.0, 2.0, 5.0])
        inside = points_in_polygon(lats, lons, area.polygon)
        assert list(inside) == [False, True, False]


class TestGeoJson:
    def test_round_trip(self, tmp_path, grid):
        lat1, lon1 = grid.unproject(1000.0, 1000.0)
        areas = [
            _square("A01", grid.origin_lat, lat1, grid.origin_lon, lon1,
                    households=1200, monthly_kwh_per_household=320.0),
            _square("A02", lat1, lat1 + 0.01, lon1, lon1 + 0.01),
        ]
        path = tmp_path / "areas.geojson"
        write_planning_areas_geojson(areas, path)
        loaded = load_planning_areas(path)
        assert [a.area_id for a in loaded] == ["A01", "A02"]
        assert loaded[0].households == 1200
        assert loaded[0].monthly_kwh_per_household == 320.0
        assert loaded[1].households is None
        np.testing.assert_allclose(loaded[0].polygon[0][0], areas[0].polygon[0][0])

    def test_missing_required_property_rejected(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature",'
            '"geometry": {"type": "Polygon", "coordinates": [[[0,0],[1,0],[1,1],[0,0]]]},'
            '"properties": {"name": "x"}}]}'
        )
        with pytest.raises(InvalidInputError):
            load_planning_areas(path)


def test_grid_origin_beyond_a_pole_rejected():
    # centroid longitudes would run westward, against the index's lattice
    with pytest.raises(InvalidInputError):
        GridSpec(90.5, 0.0, 250.0, 2, 2)


def test_grid_of_2_to_the_63_cells_rejected():
    # ingest codes a cell as row * n_cols + col in one int64
    GridSpec(0.0, 0.0, 250.0, 2**32, 2**31 - 1)
    with pytest.raises(InvalidInputError):
        GridSpec(0.0, 0.0, 250.0, 2**32, 2**31)


def test_haversine_matches_textbook_value():
    # quarter meridian: equator to pole is ~10 001.0 km for the mean radius
    d = haversine_m(0.0, 0.0, 90.0, 0.0)
    assert d == pytest.approx(math.pi / 2 * 6371008.8, rel=1e-12)

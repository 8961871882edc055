from __future__ import annotations

from datetime import datetime, timezone

import pytest

from v2grid import (
    CellId,
    GridSpec,
    IngestConfig,
    LocationRecord,
    PvWindow,
    Stay,
    VehicleParams,
)

UTC = timezone.utc


@pytest.fixture
def grid() -> GridSpec:
    """Small equatorial grid; 250 m cells."""
    return GridSpec(origin_lat=0.0, origin_lon=0.0, cell_size_m=250.0, n_rows=20, n_cols=20)


@pytest.fixture
def city_grid() -> GridSpec:
    """Low-latitude city-sized grid used by pipeline tests."""
    return GridSpec(origin_lat=1.25, origin_lon=103.7, cell_size_m=250.0, n_rows=40, n_cols=60)


@pytest.fixture
def params() -> VehicleParams:
    """Reference parameter set: 25 kWh / 135 km / 6.6 kW / threshold 0.5."""
    return VehicleParams()


@pytest.fixture
def window() -> PvWindow:
    return PvWindow(9.0, 17.0)


@pytest.fixture
def ingest_cfg() -> IngestConfig:
    return IngestConfig(tau_s=3600.0, min_consecutive_days=5, utc_offset_hours=0.0)


def utc_dt(y: int, mo: int, d: int, h: int = 0, m: int = 0, s: int = 0) -> datetime:
    return datetime(y, mo, d, h, m, s, tzinfo=UTC)


def epoch_day(y: int, mo: int, d: int) -> int:
    """The epoch-day index of a calendar date, as engine and aggregate key days."""
    return int(utc_dt(y, mo, d).timestamp()) // 86400


def ping(uid: str, ts: datetime, grid: GridSpec, cell: CellId) -> LocationRecord:
    lat, lon = grid.cell_centroid(cell)
    return LocationRecord(uid, ts, lat, lon)


def stay(uid: str, cell: CellId, arrival: datetime, departure: datetime) -> Stay:
    return Stay(uid, cell, int(arrival.timestamp()), int(departure.timestamp()))

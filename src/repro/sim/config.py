"""Simulation parameter sets (Tables 2-4 of the paper).

A :class:`ParameterSet` is one column of Table 3 (2x2 miles) or Table 4
(30x30 miles): Los Angeles County (dense urban), Riverside County (sparse
rural) and the blended Synthetic Suburbia.  :class:`SimulationConfig`
adds the knobs the paper's experiments vary (movement mode, coverage
backend, k selection) plus reproduction-specific controls:

- ``area_factor`` -- density-preserving scale-down: simulating a
  ``factor``-sized window of the county keeps host/POI densities and the
  per-area query rate exact while shrinking compute.  The 30x30 parameter
  sets (121,500 vehicles in LA) are run through this for benchmarks; see
  EXPERIMENTS.md;
- ``t_execution_s`` override -- SQRR is a steady-state ratio, so shorter
  metered windows after warm-up preserve the reported shapes.

Units: areas in miles, velocities in mph, transmission range in meters
(converted internally), query rates per minute, execution time in hours.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.geometry.coverage import CoverageMethod
from repro.core.senn import SennConfig
from repro.sim.latency import LatencyModel

__all__ = [
    "METERS_PER_MILE",
    "MovementMode",
    "ParameterSet",
    "SimulationConfig",
    "los_angeles_2x2",
    "riverside_2x2",
    "suburbia_2x2",
    "los_angeles_30x30",
    "riverside_30x30",
    "suburbia_30x30",
    "PARAMETER_SETS_2X2",
    "PARAMETER_SETS_30X30",
]

METERS_PER_MILE = 1609.344

class MovementMode(enum.Enum):
    """The two movement generator modes of Section 4.1."""

    ROAD_NETWORK = "road-network"
    FREE = "free"


@dataclass(frozen=True)
class ParameterSet:
    """One simulation environment column (Tables 3-4)."""

    name: str
    poi_number: int
    mh_number: int
    c_size: int
    m_percentage: float  # percent of hosts that move
    m_velocity: float  # mph
    lambda_query: float  # queries per minute (whole system)
    tx_range_m: float  # wireless transmission range, meters
    lambda_knn: int  # mean number of queried nearest neighbors
    t_execution_hours: float
    area_miles: float  # square side length

    def __post_init__(self) -> None:
        if self.poi_number < 1 or self.mh_number < 1:
            raise ValueError("POI and MH counts must be positive")
        if not 0.0 <= self.m_percentage <= 100.0:
            raise ValueError("m_percentage must be in [0, 100]")
        if self.m_velocity <= 0.0:
            raise ValueError("m_velocity must be positive")
        if self.lambda_query <= 0.0:
            raise ValueError("lambda_query must be positive")
        if self.tx_range_m < 0.0:
            raise ValueError("tx_range_m must be non-negative")
        if self.lambda_knn < 1:
            raise ValueError("lambda_knn must be at least 1")
        if self.t_execution_hours <= 0.0 or self.area_miles <= 0.0:
            raise ValueError("execution time and area must be positive")

    @property
    def tx_range_miles(self) -> float:
        return self.tx_range_m / METERS_PER_MILE

    @property
    def host_density_per_sq_mile(self) -> float:
        return self.mh_number / (self.area_miles * self.area_miles)

    @property
    def poi_density_per_sq_mile(self) -> float:
        return self.poi_number / (self.area_miles * self.area_miles)

    def scaled_area(self, factor: float) -> "ParameterSet":
        """Simulate a ``factor``-side-length window with preserved densities.

        Host count, POI count and the system query rate scale with the
        window *area* (``factor ** 2``); densities stay exact.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        area_ratio = factor * factor
        return replace(
            self,
            name=f"{self.name} (x{factor:g} window)",
            poi_number=max(1, round(self.poi_number * area_ratio)),
            mh_number=max(1, round(self.mh_number * area_ratio)),
            lambda_query=max(1e-6, self.lambda_query * area_ratio),
            area_miles=self.area_miles * factor,
        )


# ----------------------------------------------------------------------
# Table 3: 2 miles x 2 miles area.
# ----------------------------------------------------------------------
def los_angeles_2x2() -> ParameterSet:
    return ParameterSet("Los Angeles County", 16, 463, 10, 80.0, 30.0, 23.0, 200.0, 3, 1.0, 2.0)


def riverside_2x2() -> ParameterSet:
    return ParameterSet("Riverside County", 5, 50, 10, 80.0, 30.0, 2.5, 200.0, 3, 1.0, 2.0)


def suburbia_2x2() -> ParameterSet:
    return ParameterSet("Synthetic Suburbia", 11, 257, 10, 80.0, 30.0, 13.0, 200.0, 3, 1.0, 2.0)


# ----------------------------------------------------------------------
# Table 4: 30 miles x 30 miles area.
# ----------------------------------------------------------------------
def los_angeles_30x30() -> ParameterSet:
    return ParameterSet(
        "Los Angeles County", 4050, 121500, 20, 80.0, 30.0, 8100.0, 200.0, 5, 5.0, 30.0
    )


def riverside_30x30() -> ParameterSet:
    return ParameterSet(
        "Riverside County", 2160, 11700, 20, 80.0, 30.0, 780.0, 200.0, 5, 5.0, 30.0
    )


def suburbia_30x30() -> ParameterSet:
    return ParameterSet(
        "Synthetic Suburbia", 3105, 66600, 20, 80.0, 30.0, 4440.0, 200.0, 5, 5.0, 30.0
    )


PARAMETER_SETS_2X2 = {
    "LA": los_angeles_2x2,
    "SYN": suburbia_2x2,
    "RV": riverside_2x2,
}

PARAMETER_SETS_30X30 = {
    "LA": los_angeles_30x30,
    "SYN": suburbia_30x30,
    "RV": riverside_30x30,
}


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulation run needs."""

    parameters: ParameterSet
    movement_mode: MovementMode = MovementMode.ROAD_NETWORK
    seed: int = 0
    t_execution_s: Optional[float] = None  # overrides parameters when set
    warmup_fraction: float = 0.2
    movement_tick_s: float = 2.0
    pause_max_s: float = 60.0
    coverage_method: CoverageMethod = CoverageMethod.EXACT
    polygon_sides: int = 32
    snap_pois_to_roads: bool = True
    cache_history: int = 1  # >1: retain the last N results (extension)
    latency_model: LatencyModel = LatencyModel()
    record_trace: bool = False  # keep a full per-query event trace
    # POI placement: uniform by default; setting poi_clusters places the
    # POIs in Gaussian blobs around that many random "town centers"
    # (gas stations cluster at intersections and commercial strips).
    poi_clusters: Optional[int] = None
    poi_cluster_sigma_miles: float = 0.4
    # Route all server traffic through the query service's loopback
    # transport (encode -> decode -> engine -> encode -> decode) instead
    # of calling the in-process server directly.  Answers are identical
    # by construction; this exists so simulations exercise the exact
    # wire code path the TCP service runs.
    use_service: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.movement_tick_s <= 0.0:
            raise ValueError("movement_tick_s must be positive")
        if self.poi_clusters is not None and self.poi_clusters < 1:
            raise ValueError("poi_clusters must be at least 1 when set")
        if self.poi_cluster_sigma_miles <= 0.0:
            raise ValueError("poi_cluster_sigma_miles must be positive")

    @property
    def duration_s(self) -> float:
        if self.t_execution_s is not None:
            return self.t_execution_s
        return self.parameters.t_execution_hours * 3600.0

    @property
    def query_rate_per_s(self) -> float:
        return self.parameters.lambda_query / 60.0

    def senn_config(self) -> SennConfig:
        """The per-host SENN configuration implied by the parameter set."""
        return SennConfig(
            k=self.parameters.lambda_knn,
            transmission_range=self.parameters.tx_range_miles,
            cache_capacity=self.parameters.c_size,
            coverage_method=self.coverage_method,
            polygon_sides=self.polygon_sides,
            cache_history=self.cache_history,
        )

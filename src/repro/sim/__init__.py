"""Mobility simulation substrate (Section 4.1's simulator).

- :mod:`repro.sim.grid` -- uniform-grid spatial hash for peer discovery
  within the wireless transmission range;
- :mod:`repro.sim.mobility` -- the random waypoint model (free movement)
  and road-network mobility with per-segment speed limits, the route
  planner road hosts share and the fleet that advances them in arrays;
- :mod:`repro.sim.config` -- simulation parameter sets, including the Los
  Angeles / Riverside / Synthetic Suburbia configurations of Tables 3-4;
- :mod:`repro.sim.stats` -- SQRR and resolution-tier metrics;
- :mod:`repro.sim.simulation` -- the event loop tying hosts, mobility,
  query workload and the server together.
"""

from repro.sim.config import (
    MovementMode,
    ParameterSet,
    SimulationConfig,
    los_angeles_2x2,
    los_angeles_30x30,
    riverside_2x2,
    riverside_30x30,
    suburbia_2x2,
    suburbia_30x30,
)
from repro.sim.grid import UniformGrid
from repro.sim.latency import LatencyModel
from repro.sim.mobility import (
    Fleet,
    FreeTrajectory,
    RoadTrajectory,
    RoutePlanner,
    Trajectory,
)
from repro.sim.simulation import Simulation
from repro.sim.stats import SimulationMetrics
from repro.sim.trace import QueryEvent, QueryTrace

__all__ = [
    "Fleet",
    "FreeTrajectory",
    "LatencyModel",
    "MovementMode",
    "ParameterSet",
    "QueryEvent",
    "QueryTrace",
    "RoadTrajectory",
    "RoutePlanner",
    "Simulation",
    "SimulationConfig",
    "SimulationMetrics",
    "Trajectory",
    "UniformGrid",
    "los_angeles_2x2",
    "los_angeles_30x30",
    "riverside_2x2",
    "riverside_30x30",
    "suburbia_2x2",
    "suburbia_30x30",
]

"""The simulation event loop (Section 4.1's simulator).

One :class:`Simulation` wires together:

- a world: the square area, its POIs (gas stations), and -- in road mode
  -- a generated road network;
- the remote :class:`~repro.core.server.SpatialDatabaseServer` indexing
  the POIs with an R*-tree;
- the mobile hosts, each with a mobility trajectory, a local cache and
  the SENN pipeline;
- a Poisson query workload: exponential inter-arrival times with the
  configured system-wide rate; each arrival picks a uniformly random
  host, which then executes SENN against its in-range peers.

Movement advances in fixed ticks (default 2 s of simulated time: at
50 mph a host moves ~45 m per tick, well under the 200 m transmission
range), and the peer-discovery grid is refreshed each tick.  Queries
arriving within a tick use the tick's positions.  A tick moves the
hosts in the grid's coordinate arrays only; a ``MobileHost.position``
is brought up to date when the host queries or is polled as a peer, and
for every host when :meth:`Simulation.run` returns.

Metrics are recorded only after the warm-up fraction of the run, matching
the paper's "all simulation results were recorded after the system
reached steady state".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.obs import OBS, Gauge, Instrument, span
from repro.core.backend import SpatialBackend
from repro.core.host import MobileHost
from repro.core.server import SpatialDatabaseServer
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.graph import SpatialNetwork
from repro.sim.config import MovementMode, SimulationConfig
from repro.sim.grid import UniformGrid
from repro.sim.mobility import (
    Fleet,
    FreeTrajectory,
    RoadTrajectory,
    RoutePlanner,
    StationaryTrajectory,
    Trajectory,
)
from repro.sim.stats import SimulationMetrics
from repro.sim.trace import QueryEvent, QueryTrace

__all__ = ["Simulation"]

_HOSTS = Instrument(Gauge, "sim.hosts")
_POIS = Instrument(Gauge, "sim.pois")


class Simulation:
    """A full, reproducible simulation run."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        params = config.parameters
        self.area = params.area_miles

        # --- road network ------------------------------------------------
        self.network: Optional[SpatialNetwork] = None
        if config.movement_mode is MovementMode.ROAD_NETWORK:
            spec = RoadNetworkSpec(width=self.area, height=self.area, seed=config.seed)
            self.network = generate_road_network(spec)

        # --- POIs and server ---------------------------------------------
        self.pois = self._generate_pois()
        self.server = SpatialDatabaseServer.from_points(self.pois)
        # The backend the hosts talk to: the server itself, or -- with
        # ``use_service`` -- the same server behind the query service's
        # loopback transport, so every query round-trips the wire codec.
        self.backend: SpatialBackend = self.server
        if config.use_service:
            from repro.service.client import ServiceClient
            from repro.service.engine import QueryService
            from repro.service.transport import LoopbackTransport

            self.backend = ServiceClient(
                LoopbackTransport(QueryService(self.server))
            )

        # --- hosts ---------------------------------------------------------
        self.hosts: List[MobileHost] = []
        self.fleet = self._create_hosts()

        # --- peer discovery grid -------------------------------------------
        self.grid = UniformGrid(
            max(params.tx_range_miles, 1e-6),
            [host.position.x for host in self.hosts],
            [host.position.y for host in self.hosts],
        )

        self.metrics = SimulationMetrics()
        # The trace records every query, warm-up included, so steady-state
        # analysis can see the cold start.
        self.trace: Optional[QueryTrace] = (
            QueryTrace() if config.record_trace else None
        )
        if OBS.enabled:
            _HOSTS().set(len(self.hosts))
            _POIS().set(len(self.pois))

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------
    def _generate_pois(self) -> List[Tuple[Point, str]]:
        params = self.config.parameters
        centers = None
        if self.config.poi_clusters is not None:
            centers = self.rng.uniform(
                0.0, self.area, size=(self.config.poi_clusters, 2)
            )
        pois: List[Tuple[Point, str]] = []
        for i in range(params.poi_number):
            if centers is None:
                raw = Point(
                    float(self.rng.uniform(0.0, self.area)),
                    float(self.rng.uniform(0.0, self.area)),
                )
            else:
                center = centers[int(self.rng.integers(len(centers)))]
                sigma = self.config.poi_cluster_sigma_miles
                raw = Point(
                    float(min(max(center[0] + self.rng.normal(0.0, sigma), 0.0), self.area)),
                    float(min(max(center[1] + self.rng.normal(0.0, sigma), 0.0), self.area)),
                )
            if self.network is not None and self.config.snap_pois_to_roads:
                raw = self.network.snap(raw).point
            pois.append((raw, f"poi-{i}"))
        return pois

    def _create_hosts(self) -> Fleet:
        params = self.config.parameters
        senn_config = self.config.senn_config()
        moving_share = params.m_percentage / 100.0
        # Road mode: one planner for every host, which also holds the
        # node ids start nodes and destinations are drawn from.
        planner = RoutePlanner(self.network) if self.network is not None else None
        trajectories: List[Trajectory] = []
        for host_id in range(params.mh_number):
            trajectory = self._make_trajectory(moving_share, planner)
            trajectories.append(trajectory)
            self.hosts.append(MobileHost(host_id, trajectory.position, senn_config))
        return Fleet(trajectories)

    def _make_trajectory(
        self, moving_share: float, planner: Optional[RoutePlanner]
    ) -> Trajectory:
        params = self.config.parameters
        moving = bool(self.rng.uniform() < moving_share)
        if planner is not None:
            start = int(planner.node_ids[self.rng.integers(len(planner.node_ids))])
            if not moving:
                return StationaryTrajectory(planner.network.node_position(start))
            return RoadTrajectory(
                planner.network,
                desired_speed_mph=params.m_velocity,
                rng=self.rng,
                pause_max_s=self.config.pause_max_s,
                start_node=start,
                planner=planner,
            )
        start_point = Point(
            float(self.rng.uniform(0.0, self.area)),
            float(self.rng.uniform(0.0, self.area)),
        )
        if not moving:
            return StationaryTrajectory(start_point)
        return FreeTrajectory(
            self.area,
            self.area,
            speed_mph=params.m_velocity,
            rng=self.rng,
            pause_max_s=self.config.pause_max_s,
            start=start_point,
        )

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationMetrics:
        """Execute the configured duration and return the metrics."""
        duration = self.config.duration_s
        warmup_end = duration * self.config.warmup_fraction
        tick = self.config.movement_tick_s
        rate = self.config.query_rate_per_s

        now = 0.0
        next_query = float(self.rng.exponential(1.0 / rate))
        warmup_reset_done = self.config.warmup_fraction == 0.0
        while now < duration:
            tick_end = min(now + tick, duration)
            with span("sim.phase.advance"):
                self._advance_hosts(tick_end - now)
            now = tick_end
            while next_query <= now:
                if not warmup_reset_done and next_query >= warmup_end:
                    self.server.reset_statistics()
                    warmup_reset_done = True
                with span("sim.phase.query"):
                    self._issue_query(record=next_query >= warmup_end,
                                      timestamp=next_query)
                next_query += float(self.rng.exponential(1.0 / rate))
        for host in self.hosts:
            self._locate(host)
        return self.metrics

    def _advance_hosts(self, dt: float) -> None:
        if dt <= 0.0:
            return
        self.grid.move_many(*self.fleet.advance(dt))

    def _locate(self, host: MobileHost) -> MobileHost:
        """Bring ``host.position`` up to the last tick."""
        host.position = self.grid.position_of(host.host_id)
        return host

    def _issue_query(self, record: bool, timestamp: float) -> None:
        host = self._locate(self.hosts[int(self.rng.integers(len(self.hosts)))])
        peer_ids = self.grid.within_range(
            host.position,
            self.config.parameters.tx_range_miles,
            exclude=host.host_id,
        )
        peers = [self._locate(self.hosts[peer_id]) for peer_id in peer_ids]
        probes_before = host.peer_probes_sent
        tuples_before = host.tuples_received
        k = self.config.parameters.lambda_knn
        result = host.query_knn(
            k=k, peers=peers, server=self.backend, timestamp=timestamp
        )
        probes = host.peer_probes_sent - probes_before
        tuples = host.tuples_received - tuples_before
        latency = self.config.latency_model.query_latency_ms(
            result.tier, probes, tuples, result.server_pages
        )
        if self.trace is not None:
            self.trace.record(
                QueryEvent(
                    timestamp=timestamp,
                    host_id=host.host_id,
                    kind="knn",
                    parameter=float(k),
                    tier=result.tier,
                    server_pages=result.server_pages,
                    peer_probes=probes,
                    tuples_received=tuples,
                    latency_ms=latency,
                )
            )
        if record:
            self.metrics.record(
                result.tier,
                result.server_pages,
                peer_probes=probes,
                tuples_received=tuples,
                latency_ms=latency,
            )
        else:
            self.metrics.warmup_queries += 1

    def __repr__(self) -> str:
        mode = self.config.movement_mode.value
        return (
            f"Simulation({self.config.parameters.name}, {mode}, "
            f"{len(self.hosts)} hosts, {len(self.pois)} POIs)"
        )

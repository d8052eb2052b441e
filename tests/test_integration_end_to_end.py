"""End-to-end integration tests spanning multiple subsystems.

These tests exercise realistic mini-scenarios across the geometry, index,
network, core and sim layers together, the way the examples do -- but
with assertions instead of prose.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MobileHost,
    SennConfig,
    SpatialDatabaseServer,
    snnn_query,
)
from repro.geometry.point import Point
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.ier import incremental_network_expansion
from repro.sim.config import MovementMode, SimulationConfig, suburbia_2x2
from repro.sim.simulation import Simulation


class TestConvoyScenario:
    """A line of cars driving the same road shares almost everything."""

    def test_convoy_cache_propagation(self):
        rng = np.random.default_rng(0)
        pois = [
            (Point(float(x), float(y)), f"poi-{i}")
            for i, (x, y) in enumerate(rng.uniform(0, 4, size=(30, 2)))
        ]
        server = SpatialDatabaseServer.from_points(pois)
        config = SennConfig(k=3, transmission_range=0.3, cache_capacity=10)

        convoy = []
        for i in range(12):
            car = MobileHost(i, Point(0.3 * i + 0.2, 2.0), config)
            car.query_knn(peers=convoy, server=server)
            convoy.append(car)
        # The first car had no peers; later cars increasingly reuse.
        total = len(convoy)
        server_queries = server.queries_served
        assert server_queries < total
        # Every car's cache ends up warm.
        assert all(not car.cache.is_empty() for car in convoy)
        # All answers were exact (spot check the last car).
        last = convoy[-1]
        result = last.query_knn(peers=convoy[:-1], server=server)
        expected = sorted(last.position.distance_to(p) for p, _ in pois)[:3]
        assert [n.distance for n in result.neighbors][:3] == pytest.approx(expected)


class TestSnnnWithWarmPeers:
    def test_network_query_uses_peer_knowledge(self):
        network = generate_road_network(
            RoadNetworkSpec(width=3.0, height=3.0, secondary_spacing=0.3, seed=5)
        )
        rng = np.random.default_rng(5)
        pois = [
            (network.snap(Point(float(x), float(y))).point, f"poi-{i}")
            for i, (x, y) in enumerate(rng.uniform(0, 3, size=(25, 2)))
        ]
        server = SpatialDatabaseServer.from_points(pois)
        config = SennConfig(k=2, transmission_range=0.5, cache_capacity=12)

        scout = MobileHost(1, Point(1.5, 1.5), config)
        scout.query_knn(peers=[], server=server)

        traveller = MobileHost(2, Point(1.52, 1.5), config)
        result = traveller.query_knn_network(
            network, peers=[scout], server=server
        )
        oracle = incremental_network_expansion(
            network,
            network.snap(traveller.position),
            [(network.snap(p), payload) for p, payload in pois],
            2,
        )
        assert [r.network_distance for r in result.neighbors] == pytest.approx(
            [r.network_distance for r in oracle]
        )


class TestModesAgreeOnScale:
    def test_road_and_free_modes_same_ballpark(self):
        """Both movement modes land in the same regime (Section 4.3)."""
        shares = {}
        for mode in (MovementMode.ROAD_NETWORK, MovementMode.FREE):
            config = SimulationConfig(
                parameters=suburbia_2x2(),
                movement_mode=mode,
                t_execution_s=600.0,
                seed=9,
            )
            shares[mode] = Simulation(config).run().server_share
        assert abs(shares[MovementMode.ROAD_NETWORK] - shares[MovementMode.FREE]) < 0.25


class TestSnnnPropertyMiniWorlds:
    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=12, deadline=None)
    def test_snnn_always_matches_oracle(self, seed):
        network = generate_road_network(
            RoadNetworkSpec(width=2.0, height=2.0, secondary_spacing=0.5, seed=seed)
        )
        rng = np.random.default_rng(seed + 1000)
        pois = [
            (network.snap(Point(float(x), float(y))).point, f"poi-{i}")
            for i, (x, y) in enumerate(rng.uniform(0, 2, size=(12, 2)))
        ]
        server = SpatialDatabaseServer.from_points(pois)
        q = Point(float(rng.uniform(0.2, 1.8)), float(rng.uniform(0.2, 1.8)))
        k = int(rng.integers(1, 4))
        result = snnn_query(q, k, network, None, [], SennConfig(k=k), server=server)
        oracle = incremental_network_expansion(
            network,
            network.snap(q),
            [(network.snap(p), payload) for p, payload in pois],
            k,
        )
        assert [r.network_distance for r in result.neighbors] == pytest.approx(
            [r.network_distance for r in oracle]
        )

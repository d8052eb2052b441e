"""Failure injection and degenerate-world tests across the stack."""

import math

import numpy as np
import pytest

from repro.core.cache import CachedQueryResult
from repro.core.heap import CandidateHeap
from repro.core.host import MobileHost
from repro.core.senn import ResolutionTier, SennConfig, senn_query
from repro.core.server import SpatialDatabaseServer
from repro.core.verification import verify_multi_peer, verify_single_peer
from repro.geometry.circle import Circle
from repro.geometry.coverage import disk_covered_by_disks
from repro.geometry.point import Point
from repro.index.knn import NeighborResult
from repro.network.graph import SpatialNetwork
from repro.sim.config import ParameterSet, SimulationConfig
from repro.sim.mobility import RoadTrajectory
from repro.sim.simulation import Simulation


def tiny_params(**overrides):
    defaults = dict(
        name="tiny",
        poi_number=3,
        mh_number=2,
        c_size=5,
        m_percentage=50.0,
        m_velocity=30.0,
        lambda_query=30.0,
        tx_range_m=200.0,
        lambda_knn=2,
        t_execution_hours=0.05,
        area_miles=1.0,
    )
    defaults.update(overrides)
    return ParameterSet(**defaults)


class TestDegenerateWorlds:
    def test_single_host_world(self):
        """One host alone: every query is local-cache or server."""
        config = SimulationConfig(parameters=tiny_params(mh_number=1), seed=0)
        metrics = Simulation(config).run()
        assert metrics.tier_counts[ResolutionTier.SINGLE_PEER] == 0
        assert metrics.tier_counts[ResolutionTier.MULTI_PEER] == 0

    def test_single_poi_world(self):
        config = SimulationConfig(
            parameters=tiny_params(poi_number=1, lambda_knn=1), seed=1
        )
        metrics = Simulation(config).run()
        assert metrics.total_queries > 0

    def test_k_exceeding_poi_count(self):
        """Asking for more neighbors than exist must not crash."""
        config = SimulationConfig(
            parameters=tiny_params(poi_number=2, lambda_knn=5), seed=2
        )
        metrics = Simulation(config).run()
        assert metrics.total_queries > 0

    def test_zero_transmission_range(self):
        """Radios off: peers unreachable, everything cache-or-server."""
        config = SimulationConfig(parameters=tiny_params(tx_range_m=0.0), seed=3)
        metrics = Simulation(config).run()
        assert metrics.tier_counts[ResolutionTier.SINGLE_PEER] == 0
        assert metrics.tier_counts[ResolutionTier.MULTI_PEER] == 0

    def test_all_hosts_stationary(self):
        config = SimulationConfig(parameters=tiny_params(m_percentage=0.0), seed=4)
        metrics = Simulation(config).run()
        assert metrics.total_queries > 0

    def test_no_warmup(self):
        config = SimulationConfig(
            parameters=tiny_params(), warmup_fraction=0.0, seed=5
        )
        metrics = Simulation(config).run()
        assert metrics.total_queries > 0


class TestVerificationEdgeCases:
    def test_peer_exactly_at_query_point(self):
        pois = [(Point(1, 0), "a"), (Point(2, 0), "b"), (Point(3, 0), "c")]
        q = Point(0, 0)
        neighbors = tuple(
            NeighborResult(p, payload, q.distance_to(p)) for p, payload in pois
        )
        cache = CachedQueryResult(q, neighbors)
        heap = CandidateHeap(2)
        verify_single_peer(q, cache, heap)
        # delta = 0: everything up to the last cached NN verifies.
        assert heap.is_complete()

    def test_poi_at_query_point(self):
        """A POI exactly at Q has distance zero and must rank first."""
        q = Point(5, 5)
        neighbors = (
            NeighborResult(q, "here", 0.0),
            NeighborResult(Point(6, 5), "there", 1.0),
        )
        cache = CachedQueryResult(q, neighbors)
        heap = CandidateHeap(1)
        verify_single_peer(q, cache, heap)
        assert heap.certain_entries()[0].payload == "here"

    def test_all_caches_empty(self):
        heap = CandidateHeap(3)
        empty = CachedQueryResult(Point(0, 0), ())
        assert verify_single_peer(Point(1, 1), empty, heap) == 0
        assert verify_multi_peer(Point(1, 1), [empty, empty], heap) == 0

    def test_coincident_certain_circles(self):
        """Identical peer circles must not break the coverage test."""
        target = Circle(Point(0, 0), 1.0)
        cover = [Circle(Point(0.1, 0), 2.0)] * 3
        assert disk_covered_by_disks(target, cover)

    def test_senn_duplicate_peer_caches(self):
        pois = [(Point(float(i), 0.0), f"poi-{i}") for i in range(1, 8)]
        q = Point(0, 0)
        neighbors = tuple(
            sorted(
                (NeighborResult(p, payload, q.distance_to(p)) for p, payload in pois),
                key=lambda n: n.distance,
            )[:5]
        )
        cache = CachedQueryResult(Point(0.01, 0.0), neighbors)
        result = senn_query(
            q, 3, None, [cache, cache, cache], SennConfig(k=3)
        )
        if result.answered_by_peers:
            payloads = [n.payload for n in result.neighbors]
            assert len(payloads) == len(set(payloads))


class TestHostEdgeCases:
    def test_query_without_server_returns_partial(self):
        host = MobileHost(1, Point(0, 0), SennConfig(k=3))
        result = host.query_knn(peers=[], server=None)
        assert result.tier is ResolutionTier.SERVER
        assert result.neighbors == []
        # Nothing to cache from a failed query.
        assert host.cache.is_empty()

    def test_empty_server(self):
        server = SpatialDatabaseServer.from_points([])
        host = MobileHost(1, Point(0, 0), SennConfig(k=3))
        result = host.query_knn(peers=[], server=server)
        assert result.neighbors == []


class TestMobilityEdgeCases:
    def test_road_trajectory_on_disconnected_network(self):
        """A host on a 2-node island keeps shuttling without escaping."""
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(1, 0))
        c = net.add_node(Point(10, 10))
        d = net.add_node(Point(11, 10))
        net.add_edge(a, b)
        net.add_edge(c, d)
        rng = np.random.default_rng(0)
        traj = RoadTrajectory(net, 30.0, rng, pause_max_s=0.0, start_node=a)
        for _ in range(50):
            p = traj.advance(60.0)
            # Never teleports to the other component.
            assert p.y < 5.0

    def test_zero_advance_is_stable(self):
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(1, 0))
        net.add_edge(a, b)
        traj = RoadTrajectory(net, 30.0, np.random.default_rng(1), start_node=a)
        p1 = traj.advance(0.0)
        p2 = traj.advance(0.0)
        assert p1 == p2

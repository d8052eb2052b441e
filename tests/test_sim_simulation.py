"""Integration tests for the full simulation loop."""

import dataclasses

import pytest

from repro.core.senn import ResolutionTier
from repro.sim.config import (
    MovementMode,
    SimulationConfig,
    los_angeles_2x2,
    riverside_2x2,
)
from repro.sim.simulation import Simulation
from repro.sim.stats import SimulationMetrics


def quick_config(**overrides):
    """A fast LA-2x2 run for tests (short metered window)."""
    defaults = dict(
        parameters=los_angeles_2x2(),
        t_execution_s=240.0,
        warmup_fraction=0.25,
        movement_tick_s=4.0,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConstruction:
    def test_road_mode_builds_network(self):
        sim = Simulation(quick_config())
        assert sim.network is not None
        assert sim.network.is_connected()
        assert len(sim.hosts) == 463
        assert len(sim.pois) == 16

    def test_free_mode_no_network(self):
        sim = Simulation(quick_config(movement_mode=MovementMode.FREE))
        assert sim.network is None

    def test_pois_snapped_in_road_mode(self):
        sim = Simulation(quick_config())
        for point, _ in sim.pois:
            snapped = sim.network.snap(point)
            assert point.distance_to(snapped.point) < 1e-6

    def test_pois_raw_when_snapping_disabled(self):
        sim = Simulation(quick_config(snap_pois_to_roads=False))
        assert len(sim.pois) == 16


class TestRun:
    def test_run_produces_queries(self):
        sim = Simulation(quick_config())
        metrics = sim.run()
        assert metrics.total_queries > 10
        # Every query resolved somewhere.
        assert sum(metrics.tier_counts.values()) == metrics.total_queries

    def test_peer_sharing_happens_in_dense_area(self):
        """LA density: a noticeable share must be answered by peers."""
        sim = Simulation(quick_config(t_execution_s=480.0))
        metrics = sim.run()
        assert metrics.peer_share > 0.05

    def test_sparse_area_leans_on_server(self):
        config = quick_config(parameters=riverside_2x2(), t_execution_s=1800.0)
        metrics_rv = Simulation(config).run()
        metrics_la = Simulation(quick_config(t_execution_s=480.0)).run()
        assert metrics_rv.server_share > metrics_la.server_share

    def test_deterministic(self):
        m1 = Simulation(quick_config()).run()
        m2 = Simulation(quick_config()).run()
        assert m1.tier_counts == m2.tier_counts

    def test_different_seeds_differ(self):
        m1 = Simulation(quick_config(seed=1)).run()
        m2 = Simulation(quick_config(seed=2)).run()
        assert m1.tier_counts != m2.tier_counts

    def test_free_mode_runs(self):
        sim = Simulation(quick_config(movement_mode=MovementMode.FREE))
        metrics = sim.run()
        assert metrics.total_queries > 0

    def test_server_pages_accounted(self):
        sim = Simulation(quick_config())
        metrics = sim.run()
        if metrics.server_query_count > 0:
            assert metrics.mean_server_pages() > 0


class TestMetrics:
    def test_empty_metrics(self):
        metrics = SimulationMetrics()
        assert metrics.total_queries == 0
        assert metrics.server_share == 0.0
        assert metrics.mean_server_pages() == 0.0

    def test_shares_sum_to_one(self):
        metrics = SimulationMetrics()
        metrics.record(ResolutionTier.SERVER, server_pages=5)
        metrics.record(ResolutionTier.SINGLE_PEER)
        metrics.record(ResolutionTier.MULTI_PEER)
        metrics.record(ResolutionTier.LOCAL_CACHE)
        total = (
            metrics.server_share
            + metrics.single_peer_share
            + metrics.multi_peer_share
        )
        assert total == pytest.approx(1.0)

    def test_every_statistic_matches_the_recorded_trace(self):
        """The tallies are the post-warm-up trace events, added up."""
        config = quick_config(record_trace=True)
        sim = Simulation(config)
        metrics = sim.run()
        warmup_end = config.duration_s * config.warmup_fraction
        events = [e for e in sim.trace.events if e.timestamp >= warmup_end]
        server = [e for e in events if e.tier is ResolutionTier.SERVER]
        assert metrics.warmup_queries == len(sim.trace.events) - len(events)
        assert metrics.total_queries == len(events) > 10
        assert metrics.server_query_count == len(server) > 0
        assert metrics.total_server_pages == sum(e.server_pages for e in server)
        assert metrics.total_peer_probes == sum(e.peer_probes for e in events)
        assert metrics.total_tuples_received == sum(
            e.tuples_received for e in events
        )
        # Latency sums per tier in event order, then over tiers in the
        # order each first answered a query: the same floats, not approx.
        by_tier = {}
        for event in events:
            by_tier[event.tier] = by_tier.get(event.tier, 0.0) + event.latency_ms
        total_latency = 0.0
        for tier_sum in by_tier.values():
            total_latency += tier_sum
        assert metrics.total_latency_ms == total_latency
        for tier in ResolutionTier:
            count = sum(1 for e in events if e.tier is tier)
            assert metrics.tier_counts[tier] == count
            assert metrics.share(tier) == count / len(events)
            assert metrics.latency_by_tier[tier] == by_tier.get(tier, 0.0)
            assert metrics.mean_latency_for(tier) == (
                by_tier[tier] / count if count else 0.0
            )
        assert metrics.server_share == len(server) / len(events)
        assert metrics.peer_share == (
            metrics.single_peer_share + metrics.multi_peer_share
        )
        assert metrics.single_peer_share == metrics.share(
            ResolutionTier.LOCAL_CACHE
        ) + metrics.share(ResolutionTier.SINGLE_PEER)
        assert metrics.multi_peer_share == metrics.share(ResolutionTier.MULTI_PEER)
        assert metrics.mean_server_pages() == (
            metrics.total_server_pages / len(server)
        )
        assert metrics.mean_peer_probes() == metrics.total_peer_probes / len(events)
        assert metrics.mean_tuples_received() == (
            metrics.total_tuples_received / len(events)
        )
        assert metrics.mean_latency_ms() == total_latency / len(events)
        assert metrics.percentages() == {
            "server": 100.0 * metrics.server_share,
            "single_peer": 100.0 * metrics.single_peer_share,
            "multi_peer": 100.0 * metrics.multi_peer_share,
        }

    def test_percentages(self):
        metrics = SimulationMetrics()
        metrics.record(ResolutionTier.SERVER, server_pages=4)
        metrics.record(ResolutionTier.SERVER, server_pages=6)
        metrics.record(ResolutionTier.SINGLE_PEER)
        metrics.record(ResolutionTier.SINGLE_PEER)
        p = metrics.percentages()
        assert p["server"] == pytest.approx(50.0)
        assert p["single_peer"] == pytest.approx(50.0)
        assert metrics.mean_server_pages() == pytest.approx(5.0)

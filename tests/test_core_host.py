"""Tests for repro.core.host."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.host import MobileHost
from repro.core.senn import ResolutionTier, SennConfig
from repro.core.server import SpatialDatabaseServer
from repro.geometry.point import Point
from repro.index.knn import NeighborResult
from repro.network.generator import RoadNetworkSpec, generate_road_network


def make_pois(n=40, seed=0, extent=10.0):
    rng = np.random.default_rng(seed)
    return [
        (Point(float(x), float(y)), f"poi-{i}")
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, extent, n), rng.uniform(0, extent, n))
        )
    ]


CONFIG = SennConfig(k=3, transmission_range=1.0, cache_capacity=10)


class TestRangeAndPeers:
    def test_in_range(self):
        a = MobileHost(1, Point(0, 0), CONFIG)
        b = MobileHost(2, Point(0.5, 0), CONFIG)
        c = MobileHost(3, Point(5, 0), CONFIG)
        assert a.in_range_of(b)
        assert not a.in_range_of(c)

    def test_reachable_peers_excludes_self(self):
        a = MobileHost(1, Point(0, 0), CONFIG)
        b = MobileHost(2, Point(0.2, 0), CONFIG)
        peers = a.reachable_peers([a, b])
        assert peers == [b]


def _probe_reference(host, peers):
    """The probe loop as public calls: ``reachable_peers``, then
    ``cache_snapshots`` per peer; returns caches and counter moves."""
    caches, probes, received, tuples = [], 0, 0, 0
    for peer in host.reachable_peers(peers):
        probes += 1
        snapshots = peer.cache_snapshots()
        received += len(snapshots)
        tuples += sum(entry.k for entry in snapshots)
        caches.extend(snapshots)
    own_history = host.cache.snapshots()[1:]
    caches.extend(entry for entry in own_history if not entry.is_empty())
    return caches, (probes, received, tuples)


def _fill_cache(data, host):
    """Zero to four stores of every shape a cache can hold, maybe a clear."""
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        kind = data.draw(
            st.sampled_from(["knn", "empty", "clear"])
        )
        where = Point(
            data.draw(st.floats(min_value=-3.0, max_value=3.0)),
            data.draw(st.floats(min_value=-3.0, max_value=3.0)),
        )
        if kind == "knn":
            count = data.draw(st.integers(min_value=1, max_value=3))
            host.cache.store(
                where,
                [
                    NeighborResult(Point(where.x + i + 1.0, where.y), f"n{i}", i + 1.0)
                    for i in range(count)
                ],
            )
        elif kind == "empty":
            host.cache.store(where, [])
        else:
            host.cache.clear()


#: Offsets from the querying host at the origin, range 5: exactly on the
#: boundary (3-4-5 and on the axes, where ``hypot`` is exact), just past
#: it, the host's own position, and anywhere around.
_OFFSET = st.one_of(
    st.sampled_from(
        [(3.0, 4.0), (-5.0, 0.0), (0.0, 5.0), (3.0, 4.000001), (0.0, 0.0)]
    ),
    st.tuples(
        st.floats(min_value=-7.0, max_value=7.0),
        st.floats(min_value=-7.0, max_value=7.0),
    ),
)


class TestPeerProbing:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_matches_reachable_peers_and_snapshots(self, data):
        def config():
            return SennConfig(
                k=3,
                transmission_range=5.0,
                cache_history=data.draw(st.sampled_from([1, 3])),
            )

        host = MobileHost(0, Point(0.0, 0.0), config())
        _fill_cache(data, host)
        peers = []
        for host_id in range(1, data.draw(st.integers(min_value=0, max_value=8)) + 1):
            peer = MobileHost(host_id, Point(*data.draw(_OFFSET)), config())
            _fill_cache(data, peer)
            peers.append(peer)
        if data.draw(st.booleans()):
            peers.insert(data.draw(st.integers(min_value=0, max_value=len(peers))), host)

        for peer in peers:
            shared = [e for e in peer.cache.snapshots() if not e.is_empty()]
            assert [id(e) for e in peer.cache_snapshots()] == [id(e) for e in shared]
        expected, moves = _probe_reference(host, peers)
        before = (host.peer_probes_sent, host.peer_caches_received, host.tuples_received)
        caches = host._collect_peer_caches(peers)
        after = (host.peer_probes_sent, host.peer_caches_received, host.tuples_received)
        assert [id(c) for c in caches] == [id(c) for c in expected]
        assert tuple(b - a for a, b in zip(before, after)) == moves

    def test_a_peer_exactly_at_the_range_is_probed(self):
        config = SennConfig(k=3, transmission_range=5.0)
        host = MobileHost(0, Point(0.0, 0.0), config)
        edge = MobileHost(1, Point(3.0, 4.0), config)
        beyond = MobileHost(2, Point(3.0, 4.000001), config)
        for peer in (edge, beyond):
            peer.cache.store(peer.position, [NeighborResult(Point(3.0, 5.0), "a", 1.0)])
        caches = host._collect_peer_caches([beyond, host, edge])
        assert caches == edge.cache_snapshots()
        assert (host.peer_probes_sent, host.peer_caches_received) == (1, 1)
        assert host.tuples_received == 1


class TestQueryFlow:
    def test_cold_start_goes_to_server(self):
        pois = make_pois()
        server = SpatialDatabaseServer.from_points(pois)
        host = MobileHost(1, Point(5, 5), CONFIG)
        result = host.query_knn(peers=[], server=server)
        assert result.tier is ResolutionTier.SERVER
        assert host.queries_issued == 1
        assert host.resolution_counts[ResolutionTier.SERVER] == 1
        # Cache was filled with the (over-fetched) certain result.
        assert not host.cache.is_empty()
        assert host.cache.get().k == CONFIG.cache_capacity

    def test_repeat_query_hits_local_cache(self):
        pois = make_pois()
        server = SpatialDatabaseServer.from_points(pois)
        host = MobileHost(1, Point(5, 5), CONFIG)
        host.query_knn(peers=[], server=server)
        result = host.query_knn(peers=[], server=server)
        assert result.tier is ResolutionTier.LOCAL_CACHE
        assert server.queries_served == 1  # no second server round-trip

    def test_peer_sharing_avoids_server(self):
        pois = make_pois()
        server = SpatialDatabaseServer.from_points(pois)
        veteran = MobileHost(1, Point(5, 5), CONFIG)
        veteran.query_knn(peers=[], server=server)

        newcomer = MobileHost(2, Point(5.05, 5.0), CONFIG)
        result = newcomer.query_knn(peers=[veteran], server=server)
        assert result.tier in (
            ResolutionTier.SINGLE_PEER,
            ResolutionTier.MULTI_PEER,
        )
        assert server.queries_served == 1

    def test_out_of_range_peer_not_consulted(self):
        pois = make_pois()
        server = SpatialDatabaseServer.from_points(pois)
        veteran = MobileHost(1, Point(5, 5), CONFIG)
        veteran.query_knn(peers=[], server=server)
        distant = MobileHost(2, Point(9.9, 9.9), CONFIG)
        result = distant.query_knn(peers=[veteran], server=server)
        assert result.tier is ResolutionTier.SERVER
        assert result.peers_consulted == 0

    def test_query_correctness_via_peers(self):
        pois = make_pois(seed=7)
        server = SpatialDatabaseServer.from_points(pois)
        veteran = MobileHost(1, Point(5, 5), CONFIG)
        veteran.query_knn(peers=[], server=server)
        newcomer = MobileHost(2, Point(5.02, 5.0), CONFIG)
        result = newcomer.query_knn(peers=[veteran], server=server)
        q = newcomer.position
        expected = sorted(q.distance_to(p) for p, _ in pois)[:3]
        assert [n.distance for n in result.neighbors][:3] == pytest.approx(expected)

    def test_server_share(self):
        pois = make_pois()
        server = SpatialDatabaseServer.from_points(pois)
        host = MobileHost(1, Point(5, 5), CONFIG)
        assert host.server_share() == 0.0
        host.query_knn(peers=[], server=server)  # server
        host.query_knn(peers=[], server=server)  # local cache
        assert host.server_share() == pytest.approx(0.5)

    def test_network_query(self):
        network = generate_road_network(
            RoadNetworkSpec(width=10.0, height=10.0, secondary_spacing=1.0, seed=0)
        )
        pois = [(network.snap(p).point, payload) for p, payload in make_pois(20)]
        server = SpatialDatabaseServer.from_points(pois)
        host = MobileHost(1, Point(5, 5), CONFIG)
        result = host.query_knn_network(network, peers=[], server=server)
        assert len(result.neighbors) == 3
        assert host.queries_issued == 1

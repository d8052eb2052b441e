"""Tests for repro.core.senn (Algorithm 1) -- the paper's centerpiece."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CachedQueryResult
from repro.core.senn import ResolutionTier, SennConfig, senn_query
from repro.core.server import SpatialDatabaseServer
from repro.geometry.coverage import CoverageMethod
from repro.geometry.point import Point
from repro.index.knn import NeighborResult


def true_knn(pois, location, k):
    ordered = sorted((location.distance_to(p), i, p) for i, (p, _) in enumerate(pois))
    return [NeighborResult(p, pois[i][1], d) for d, i, p in ordered[:k]]


def make_cache(pois, location, k):
    return CachedQueryResult(location, tuple(true_knn(pois, location, k)))


def random_world(seed, poi_count=30, extent=10.0):
    rng = np.random.default_rng(seed)
    pois = [
        (Point(float(x), float(y)), f"poi-{i}")
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, extent, poi_count), rng.uniform(0, extent, poi_count))
        )
    ]
    return rng, pois


DEFAULT_CONFIG = SennConfig(k=3, transmission_range=2.0, cache_capacity=10)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SennConfig(k=0)
        with pytest.raises(ValueError):
            SennConfig(transmission_range=-1.0)
        with pytest.raises(ValueError):
            SennConfig(cache_capacity=0)
        with pytest.raises(ValueError):
            SennConfig(polygon_sides=2)


class TestTiers:
    def test_local_cache_tier(self):
        """A host re-querying near its last location answers locally."""
        _, pois = random_world(0)
        q = Point(5, 5)
        own = make_cache(pois, Point(5.01, 5.0), 8)
        result = senn_query(q, 3, own, [], DEFAULT_CONFIG)
        assert result.tier is ResolutionTier.LOCAL_CACHE
        assert len(result.neighbors) == 3

    def test_single_peer_tier(self):
        _, pois = random_world(1)
        q = Point(5, 5)
        peer = make_cache(pois, Point(5.05, 5.0), 8)
        result = senn_query(q, 3, None, [peer], DEFAULT_CONFIG)
        assert result.tier is ResolutionTier.SINGLE_PEER
        assert result.peers_consulted == 1

    def test_server_tier_no_peers(self):
        _, pois = random_world(2)
        server = SpatialDatabaseServer.from_points(pois)
        result = senn_query(Point(5, 5), 3, None, [], DEFAULT_CONFIG, server=server)
        assert result.tier is ResolutionTier.SERVER
        assert server.queries_served == 1
        assert result.server_pages > 0

    def test_uncertain_tier_when_accepted(self):
        _, pois = random_world(3)
        q = Point(0, 0)
        # A peer far away: its POIs land in the heap as uncertain.
        peer = make_cache(pois, Point(9, 9), 5)
        config = SennConfig(k=3, accept_uncertain=True)
        result = senn_query(q, 3, None, [peer], config)
        if result.tier is ResolutionTier.UNCERTAIN:
            assert len(result.neighbors) == 3

    def test_server_tier_without_server_returns_partial(self):
        _, pois = random_world(4)
        q = Point(0, 0)
        peer = make_cache(pois, Point(9, 9), 3)
        result = senn_query(q, 3, None, [peer], DEFAULT_CONFIG, server=None)
        assert result.tier is ResolutionTier.SERVER
        # Only certain entries are returned when no server is reachable.
        truth = [n.payload for n in true_knn(pois, q, 3)]
        assert [n.payload for n in result.neighbors] == truth[: len(result.neighbors)]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            senn_query(Point(0, 0), 0, None, [], DEFAULT_CONFIG)


class TestCorrectness:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_peer_answers_equal_brute_force(self, seed):
        """Whenever SENN answers from peers, the result is the exact kNN."""
        rng, pois = random_world(seed, poi_count=40)
        q = Point(float(rng.uniform(2, 8)), float(rng.uniform(2, 8)))
        caches = []
        for _ in range(int(rng.integers(0, 6))):
            peer = Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            caches.append(make_cache(pois, peer, int(rng.integers(1, 9))))
        k = int(rng.integers(1, 6))
        config = SennConfig(k=k, transmission_range=5.0)
        result = senn_query(q, k, None, caches, config)
        if result.answered_by_peers:
            expected = [n.distance for n in true_knn(pois, q, k)]
            assert [n.distance for n in result.neighbors] == pytest.approx(expected)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_with_server_always_exact(self, seed):
        """With a server fallback the answer is always the exact kNN."""
        rng, pois = random_world(seed, poi_count=40)
        server = SpatialDatabaseServer.from_points(pois)
        q = Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        caches = []
        for _ in range(int(rng.integers(0, 4))):
            peer = Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            caches.append(make_cache(pois, peer, int(rng.integers(1, 8))))
        k = int(rng.integers(1, 6))
        config = SennConfig(k=k)
        result = senn_query(q, k, None, caches, config, server=server)
        expected = [n.distance for n in true_knn(pois, q, k)]
        assert sorted(n.distance for n in result.neighbors)[:k] == pytest.approx(
            expected
        )

    def test_server_overfetch_is_exact(self):
        """Policy 2 over-fetching (server_k > k) must stay correct.

        Regression: the visible answer is trimmed to the requested k;
        the over-fetched surplus is cache material (``prefetched``), not
        part of the caller's neighbors.
        """
        _, pois = random_world(9, poi_count=50)
        server = SpatialDatabaseServer.from_points(pois)
        q = Point(5, 5)
        result = senn_query(
            q, 3, None, [], SennConfig(k=3), server=server, server_k=10
        )
        expected = [n.distance for n in true_knn(pois, q, 10)]
        assert [n.distance for n in result.neighbors] == pytest.approx(expected[:3])
        assert [n.distance for n in result.prefetched] == pytest.approx(expected)
        assert result.cacheable is result.prefetched

    def test_no_overfetch_leaves_prefetched_empty(self):
        """Without policy 2 the answer and the cacheable set coincide."""
        _, pois = random_world(9, poi_count=50)
        server = SpatialDatabaseServer.from_points(pois)
        result = senn_query(
            Point(5, 5), 3, None, [], SennConfig(k=3), server=server
        )
        assert result.prefetched == ()
        assert result.cacheable is result.neighbors

    def test_heuristic_orders_peers_by_distance(self):
        """The nearest peer's cache is consulted first (Heuristic 3.3)."""
        _, pois = random_world(11)
        q = Point(5, 5)
        near = make_cache(pois, Point(5.1, 5.0), 8)
        far = make_cache(pois, Point(8.0, 8.0), 8)
        result = senn_query(q, 3, None, [far, near], DEFAULT_CONFIG)
        if result.tier is ResolutionTier.SINGLE_PEER:
            assert result.peers_consulted == 1  # near peer sufficed

    def test_multi_peer_beats_single_peer(self):
        """Constructed Figure-7-style case resolved only by merging."""
        pois = [
            (Point(x * 0.8, y * 0.8), f"poi-{x}-{y}")
            for x in range(-2, 9)
            for y in range(-2, 9)
        ]
        q = Point(2.4, 2.4)
        caches = [
            make_cache(pois, Point(1.9, 2.4), 7),
            make_cache(pois, Point(2.9, 2.4), 7),
            make_cache(pois, Point(2.4, 1.9), 7),
            make_cache(pois, Point(2.4, 2.9), 7),
        ]
        config = SennConfig(k=5, transmission_range=5.0)
        result = senn_query(q, 5, None, caches, config)
        if result.tier is ResolutionTier.MULTI_PEER:
            expected = [n.distance for n in true_knn(pois, q, 5)]
            assert [n.distance for n in result.neighbors] == pytest.approx(expected)


class TestBoundsFlow:
    def test_bounds_forwarded_reduce_pages(self):
        rng, pois = random_world(13, poi_count=4000, extent=100.0)
        q = Point(50, 50)
        peer = make_cache(pois, Point(50.5, 50.0), 10)
        config = SennConfig(k=8)

        server_with = SpatialDatabaseServer.from_points(pois)
        with_peers = senn_query(q, 8, None, [peer], config, server=server_with)
        server_without = SpatialDatabaseServer.from_points(pois)
        without_peers = senn_query(q, 8, None, [], config, server=server_without)

        if with_peers.tier is ResolutionTier.SERVER:
            assert with_peers.server_pages <= without_peers.server_pages
            assert [n.distance for n in with_peers.neighbors] == pytest.approx(
                [n.distance for n in without_peers.neighbors]
            )


def _figure7_world():
    """Four caches around ``q`` that certify its 5 NNs only when merged."""
    pois = [
        (Point(x * 0.8, y * 0.8), f"poi-{x}-{y}")
        for x in range(-2, 9)
        for y in range(-2, 9)
    ]
    caches = [
        make_cache(pois, Point(1.9, 2.4), 7),
        make_cache(pois, Point(2.9, 2.4), 7),
        make_cache(pois, Point(2.4, 1.9), 7),
        make_cache(pois, Point(2.4, 2.9), 7),
    ]
    return pois, Point(2.4, 2.4), caches


def _local_cache():
    _, pois = random_world(0)
    own = make_cache(pois, Point(5.01, 5.0), 8)
    return senn_query(Point(5, 5), 3, own, [], DEFAULT_CONFIG)


def _single_peer():
    _, pois = random_world(1)
    peer = make_cache(pois, Point(5.05, 5.0), 8)
    return senn_query(Point(5, 5), 3, None, [peer], DEFAULT_CONFIG)


def _multi_peer():
    _, q, caches = _figure7_world()
    return senn_query(q, 5, None, caches, SennConfig(k=5, transmission_range=5.0))


def _uncertain():
    _, pois = random_world(3)
    peer = make_cache(pois, Point(9, 9), 5)
    config = SennConfig(k=3, accept_uncertain=True)
    return senn_query(Point(0, 0), 3, None, [peer], config)


def _offline():
    _, pois = random_world(4)
    peer = make_cache(pois, Point(0.1, 0.0), 2)
    return senn_query(Point(0, 0), 3, None, [peer], DEFAULT_CONFIG, server=None)


def _served():
    _, pois = random_world(4)
    server = SpatialDatabaseServer.from_points(pois)
    peer = make_cache(pois, Point(0.1, 0.0), 2)
    return senn_query(Point(0, 0), 3, None, [peer], DEFAULT_CONFIG, server=server)


def _overfetched():
    _, pois = random_world(9, poi_count=50)
    server = SpatialDatabaseServer.from_points(pois)
    return senn_query(
        Point(5, 5), 3, None, [], SennConfig(k=3), server=server, server_k=10
    )


class TestHeapRetention:
    """The candidate heap is one query's working state: a returned answer
    must not keep it alive, whichever tier answered."""

    @pytest.fixture
    def heaps(self, monkeypatch):
        import weakref

        from repro.core.heap import CandidateHeap

        refs = []
        init = CandidateHeap.__init__

        def recording_init(heap, capacity):
            init(heap, capacity)
            refs.append(weakref.ref(heap))

        monkeypatch.setattr(CandidateHeap, "__init__", recording_init)
        return refs

    @pytest.mark.parametrize(
        "run, tier",
        [
            (_local_cache, ResolutionTier.LOCAL_CACHE),
            (_single_peer, ResolutionTier.SINGLE_PEER),
            (_multi_peer, ResolutionTier.MULTI_PEER),
            (_uncertain, ResolutionTier.UNCERTAIN),
            (_offline, ResolutionTier.SERVER),
            (_served, ResolutionTier.SERVER),
            (_overfetched, ResolutionTier.SERVER),
        ],
        ids=[
            "local-cache",
            "single-peer",
            "multi-peer",
            "uncertain",
            "offline",
            "served",
            "overfetched",
        ],
    )
    def test_senn_result_releases_its_heap(self, heaps, run, tier):
        result = run()
        assert result.tier is tier
        assert result.neighbors
        assert len(heaps) == 1
        assert heaps[0]() is None

    def test_host_answer_releases_its_heap(self, heaps):
        from repro.core.host import MobileHost

        pois, q, caches = _figure7_world()
        server = SpatialDatabaseServer.from_points(pois)
        host = MobileHost(1, q, SennConfig(k=5, transmission_range=5.0))
        peer = MobileHost(2, Point(2.9, 2.4), host.config)
        peer.cache.store(caches[1].query_location, caches[1].neighbors, 0.0)
        answers = [
            host.query_knn(peers=[peer], server=server),
            host.query_knn(peers=[peer], server=server),
        ]
        assert [a.tier for a in answers] == [
            ResolutionTier.SERVER,
            ResolutionTier.LOCAL_CACHE,
        ]
        assert len(heaps) == 2
        assert all(ref() is None for ref in heaps)

    def test_snnn_answer_releases_its_heap(self, heaps):
        from repro.core.snnn import snnn_query
        from repro.network.generator import RoadNetworkSpec, generate_road_network

        network = generate_road_network(
            RoadNetworkSpec(width=2.0, height=2.0, secondary_spacing=1 / 3, seed=0)
        )
        rng = np.random.default_rng(500)
        pois = [
            (network.snap(Point(*map(float, rng.uniform(0, 2.0, 2)))).point, f"poi-{i}")
            for i in range(20)
        ]
        server = SpatialDatabaseServer.from_points(pois)
        result = snnn_query(
            Point(1.0, 1.0), 3, network, None, [], SennConfig(k=3), server=server
        )
        assert result.neighbors
        assert result.senn_result.tier is ResolutionTier.SERVER
        assert heaps and all(ref() is None for ref in heaps)

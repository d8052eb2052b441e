"""Tests for repro.core.snnn (Algorithm 2)."""

import math

import numpy as np
import pytest

import repro.core.snnn as snnn_module
from repro.core.cache import CachedQueryResult
from repro.core.senn import SennConfig
from repro.core.server import SpatialDatabaseServer
from repro.core.snnn import snnn_query
from repro.geometry.point import Point
from repro.index.knn import NeighborResult
from repro.network.dijkstra import DijkstraSearch, network_distance, origin_seeds
from repro.network.generator import RoadNetworkSpec, generate_road_network


def build_world(seed=0, poi_count=20, size=2.0):
    network = generate_road_network(
        RoadNetworkSpec(width=size, height=size, secondary_spacing=size / 6, seed=seed)
    )
    rng = np.random.default_rng(seed + 500)
    pois = []
    for i in range(poi_count):
        raw = Point(float(rng.uniform(0, size)), float(rng.uniform(0, size)))
        snapped = network.snap(raw)
        pois.append((snapped.point, f"poi-{i}"))
    return network, pois, rng


def true_network_knn(network, pois, query, k):
    origin = network.snap(query)
    ordered = sorted(
        (
            network_distance(
                DijkstraSearch(network, origin_seeds(origin)), origin, network.snap(p)
            ),
            payload,
        )
        for p, payload in pois
    )
    return ordered[:k]


def true_euclid_knn(pois, location, k):
    ordered = sorted((location.distance_to(p), i, p) for i, (p, _) in enumerate(pois))
    return [NeighborResult(p, pois[i][1], d) for d, i, p in ordered[:k]]


class TestSnnn:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_brute_force_with_server(self, seed, k):
        network, pois, rng = build_world(seed)
        server = SpatialDatabaseServer.from_points(pois)
        q = Point(float(rng.uniform(0.2, 1.8)), float(rng.uniform(0.2, 1.8)))
        config = SennConfig(k=k)
        result = snnn_query(q, k, network, None, [], config, server=server)
        expected = true_network_knn(network, pois, q, k)
        assert [r.network_distance for r in result.neighbors] == pytest.approx(
            [d for d, _ in expected]
        )

    def test_peer_assisted_query(self):
        """A well-stocked nearby peer lets SNNN avoid the server entirely
        when its certain set already covers the network search bound."""
        network, pois, _ = build_world(3, poi_count=30)
        server = SpatialDatabaseServer.from_points(pois)
        q = Point(1.0, 1.0)
        peer_loc = Point(1.02, 1.0)
        cache = CachedQueryResult(
            peer_loc, tuple(true_euclid_knn(pois, peer_loc, 15))
        )
        config = SennConfig(k=2, cache_capacity=15)
        result = snnn_query(q, 2, network, None, [cache], config, server=server)
        expected = true_network_knn(network, pois, q, 2)
        assert [r.network_distance for r in result.neighbors] == pytest.approx(
            [d for d, _ in expected]
        )
        assert result.candidates_from_peers > 0

    def test_k_validation(self):
        network, pois, _ = build_world(0, poi_count=3)
        with pytest.raises(ValueError):
            snnn_query(Point(0, 0), 0, network, None, [], SennConfig(k=1))

    def test_results_sorted_by_network_distance(self):
        network, pois, rng = build_world(4)
        server = SpatialDatabaseServer.from_points(pois)
        result = snnn_query(
            Point(1.0, 1.0), 5, network, None, [], SennConfig(k=5), server=server
        )
        nds = [r.network_distance for r in result.neighbors]
        assert nds == sorted(nds)

    def test_euclidean_lower_bound_in_results(self):
        network, pois, _ = build_world(5)
        server = SpatialDatabaseServer.from_points(pois)
        result = snnn_query(
            Point(0.5, 0.5), 4, network, None, [], SennConfig(k=4), server=server
        )
        for r in result.neighbors:
            assert r.euclidean_distance <= r.network_distance + 1e-9

    def test_used_server_flag(self):
        network, pois, _ = build_world(6)
        server = SpatialDatabaseServer.from_points(pois)
        result = snnn_query(
            Point(1.0, 1.0), 3, network, None, [], SennConfig(k=3), server=server
        )
        assert result.used_server


def world_with_island(seed, poi_count=12):
    """A seeded road network plus a two-node island no road reaches.

    Returns the network, the POIs (road POIs, one more on the query's own
    edge, two on the island) and a query point lying on a road edge.
    """
    network, pois, rng = build_world(seed, poi_count=poi_count)
    edges = list(network.edges())
    edge = edges[int(rng.integers(len(edges)))]
    query = network.location_at(edge, edge.length * 0.4).point
    pois.append((network.location_at(edge, edge.length * 0.7).point, "same-edge"))
    a = network.add_node(Point(query.x + 0.031, query.y + 0.047))
    b = network.add_node(Point(query.x + 0.043, query.y + 0.061))
    island = network.add_edge(a, b)
    for fraction, payload in ((0.25, "island-0"), (0.75, "island-1")):
        pois.append(
            (network.location_at(island, island.length * fraction).point, payload)
        )
    return network, pois, query


def snnn_with_recorded_distances(network, pois, query, k, fresh):
    """Run SNNN, recording every candidate distance it measures.

    With ``fresh`` each candidate is measured on a search of its own, as
    a point-to-point distance would be, instead of on the query's search.
    Both are bounded by the same ``S_bound``.
    """
    measured = []

    def recorded(search, origin, destination, bound):
        if fresh:
            search = DijkstraSearch(network, origin_seeds(origin))
        distance = network_distance(search, origin, destination, bound)
        measured.append(distance)
        return distance

    server = SpatialDatabaseServer.from_points(pois)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(snnn_module, "network_distance", recorded)
        result = snnn_query(query, k, network, None, [], SennConfig(k=k), server=server)
    return result, measured


class TestOneSearchPerQuery:
    """Every candidate is measured on the query's one resumable search."""

    def test_one_search_is_constructed(self, monkeypatch):
        network, pois, query = world_with_island(0)
        built = []

        class CountingSearch(DijkstraSearch):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(snnn_module, "DijkstraSearch", CountingSearch)
        result, measured = snnn_with_recorded_distances(
            network, pois, query, 4, fresh=False
        )
        assert len(built) == 1
        assert len(measured) > 1
        assert len(result.neighbors) == 4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_bit_identical_to_a_fresh_search_per_candidate(self, seed, k):
        network, pois, query = world_with_island(seed)
        shared, shared_measured = snnn_with_recorded_distances(
            network, pois, query, k, fresh=False
        )
        fresh, fresh_measured = snnn_with_recorded_distances(
            network, pois, query, k, fresh=True
        )
        assert [n.payload for n in shared.neighbors] == [
            n.payload for n in fresh.neighbors
        ]
        assert [n.network_distance.hex() for n in shared.neighbors] == [
            n.network_distance.hex() for n in fresh.neighbors
        ]
        assert [d.hex() for d in shared_measured] == [d.hex() for d in fresh_measured]

    def test_world_covers_the_edge_cases(self):
        """The seeded worlds above reach all three cases they are built for."""
        network, pois, query = world_with_island(0)
        origin = network.snap(query)
        assert network.snap(pois[-3][0]).edge.key() == origin.edge.key()
        # k exceeds the reachable POIs: the island is measured, found
        # unreachable and skipped, and every reachable POI is returned.
        result, measured = snnn_with_recorded_distances(
            network, pois, query, len(pois), fresh=False
        )
        assert sum(math.isinf(d) for d in measured) == 2
        payloads = [n.payload for n in result.neighbors]
        assert len(payloads) == len(pois) - 2
        assert "same-edge" in payloads
        assert not any(p.startswith("island") for p in payloads)
        expected = true_network_knn(network, pois, query, len(pois) - 2)
        assert [n.network_distance for n in result.neighbors] == [
            d for d, _ in expected
        ]

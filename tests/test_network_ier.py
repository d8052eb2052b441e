"""Tests for repro.network.ier: IER and INE network kNN."""

import math

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.index.knn import NeighborResult
from repro.network.dijkstra import DijkstraSearch, network_distance, origin_seeds
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.graph import SpatialNetwork
from repro.network.ier import (
    incremental_euclidean_restriction,
    incremental_network_expansion,
)
from repro.network.index import DijkstraIndex


def build_scene(seed=0, poi_count=25, size=2.0):
    """A random network with random POIs snapped onto it."""
    network = generate_road_network(
        RoadNetworkSpec(width=size, height=size, secondary_spacing=size / 6, seed=seed)
    )
    rng = np.random.default_rng(seed + 100)
    pois = []
    for i in range(poi_count):
        p = Point(float(rng.uniform(0, size)), float(rng.uniform(0, size)))
        pois.append((network.snap(p), f"poi-{i}"))
    edges = list(network.edges())
    edge = edges[int(rng.integers(len(edges)))]
    origin = network.location_at(edge, float(rng.uniform(0, edge.length)))
    return network, origin, pois


def brute_force_network_knn(network, origin, pois, k):
    """Oracle: network distance to every POI, sorted."""
    distances = sorted(
        (
            network_distance(DijkstraSearch(network, origin_seeds(origin)), origin, loc),
            payload,
        )
        for loc, payload in pois
    )
    return distances[:k]


def euclidean_stream(origin, pois):
    """Yield POIs in ascending Euclidean order, as NeighborResult."""
    ordered = sorted(
        (origin.point.distance_to(loc.point), payload, loc) for loc, payload in pois
    )
    for dist, payload, loc in ordered:
        yield NeighborResult(loc.point, (payload, loc), dist)


class TestIer:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_brute_force(self, seed, k):
        network, origin, pois = build_scene(seed)

        def nd_of(candidate, bound):
            _, loc = candidate.payload
            return network_distance(
                DijkstraSearch(network, origin_seeds(origin)), origin, loc, bound
            )

        result = incremental_euclidean_restriction(
            euclidean_stream(origin, pois), nd_of, k
        )
        expected = brute_force_network_knn(network, origin, pois, k)
        assert [r.network_distance for r in result] == pytest.approx(
            [d for d, _ in expected]
        )

    def test_k_zero(self):
        assert incremental_euclidean_restriction(iter([]), lambda c, bound: 0.0, 0) == []

    def test_k_negative_raises(self):
        with pytest.raises(ValueError):
            incremental_euclidean_restriction(iter([]), lambda c, bound: 0.0, -1)

    def test_empty_source(self):
        assert incremental_euclidean_restriction(iter([]), lambda c, bound: 0.0, 3) == []

    def test_unreachable_pois_skipped(self):
        stream = iter(
            [
                NeighborResult(Point(0, 0), "reachable", 1.0),
                NeighborResult(Point(1, 0), "island", 2.0),
                NeighborResult(Point(2, 0), "far", 3.0),
            ]
        )

        def nd_of(candidate, bound):
            if candidate.payload == "island":
                return math.inf
            return candidate.distance * 1.5

        result = incremental_euclidean_restriction(stream, nd_of, 2)
        assert [r.payload for r in result] == ["reachable", "far"]

    def test_stops_early(self):
        """IER must not consume the stream past the network bound."""
        consumed = []

        def stream():
            for i in range(100):
                r = NeighborResult(Point(float(i), 0), i, float(i))
                consumed.append(i)
                yield r

        # Network distance equals Euclidean: bound after k results is k-1,
        # so the stream stops as soon as ED exceeds it.
        result = incremental_euclidean_restriction(
            stream(), lambda c, bound: c.distance, 3
        )
        assert len(result) == 3
        assert len(consumed) < 100

    def test_network_distance_ordering(self):
        """IER ranks by network distance, not Euclidean distance."""
        stream = iter(
            [
                NeighborResult(Point(1, 0), "euclid-close", 1.0),
                NeighborResult(Point(2, 0), "network-close", 2.0),
                NeighborResult(Point(9, 0), "far", 9.0),
            ]
        )
        nd_map = {"euclid-close": 5.0, "network-close": 2.5, "far": 9.5}
        result = incremental_euclidean_restriction(
            stream, lambda c, bound: nd_map[c.payload], 2
        )
        assert [r.payload for r in result] == ["network-close", "euclid-close"]


class TestIne:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_brute_force(self, seed, k):
        network, origin, pois = build_scene(seed)
        result = incremental_network_expansion(network, origin, pois, k)
        expected = brute_force_network_knn(network, origin, pois, k)
        assert [r.network_distance for r in result] == pytest.approx(
            [d for d, _ in expected]
        )

    def test_matches_ier(self):
        network, origin, pois = build_scene(3)

        def nd_of(candidate, bound):
            _, loc = candidate.payload
            return network_distance(
                DijkstraSearch(network, origin_seeds(origin)), origin, loc, bound
            )

        ine = incremental_network_expansion(network, origin, pois, 4)
        ier = incremental_euclidean_restriction(
            euclidean_stream(origin, pois), nd_of, 4
        )
        assert [r.network_distance for r in ine] == pytest.approx(
            [r.network_distance for r in ier]
        )

    def test_k_zero(self):
        network, origin, pois = build_scene(0, poi_count=3)
        assert incremental_network_expansion(network, origin, pois, 0) == []

    def test_no_pois(self):
        network, origin, _ = build_scene(0, poi_count=1)
        assert incremental_network_expansion(network, origin, [], 3) == []

    def test_k_negative_raises(self):
        network, origin, pois = build_scene(0, poi_count=3)
        with pytest.raises(ValueError):
            incremental_network_expansion(network, origin, pois, -1)

    def test_poi_on_same_edge(self):
        network, origin, _ = build_scene(1, poi_count=1)
        same_edge_poi = network.location_at(origin.edge, origin.edge.length * 0.9)
        result = incremental_network_expansion(
            network, origin, [(same_edge_poi, "here")], 1
        )
        assert result[0].payload == "here"
        assert result[0].network_distance == pytest.approx(
            abs(origin.offset - same_edge_poi.offset)
        )

    @pytest.mark.parametrize(
        "registered",
        [
            # Both 1.5 from the origin and found when b settles: only the
            # ranking decides, and "z" is registered first.
            [("z", "b", "c", 0.5), ("a", "b", "d", 0.5)],
            # "z" sits on d and is a candidate at 2.0 once b settles; "a"
            # sits on c, which is then on the frontier at exactly 2.0 and
            # must still be expanded.
            [("a", "c", "e", 0.0), ("z", "b", "d", 1.0)],
        ],
    )
    def test_exact_ties_rank_by_tie_key(self, registered):
        """A path a-b-c-e with a spur b-d, unit edges, origin at a: on an
        exact distance tie INE must agree with the reference ranking
        ``(distance, poi_tie_key, registration order)``."""
        network = SpatialNetwork()
        ids = {
            name: network.add_node(Point(x, y))
            for name, (x, y) in {
                "a": (0, 0), "b": (1, 0), "c": (2, 0), "e": (3, 0), "d": (1, 1),
            }.items()
        }
        for u, v in ["ab", "bc", "ce", "bd"]:
            network.add_edge(ids[u], ids[v])
        pois = []
        for payload, u, v, offset in registered:
            edge = network.edge_between(ids[u], ids[v])
            assert edge.u == ids[u]
            pois.append((network.location_at(edge, offset), payload))
        origin = network.location_at_node(ids["a"])
        reference = DijkstraIndex(network)
        reference.register_pois(pois)
        expected = [(n.payload, n.network_distance) for n in reference.knn(origin, 1)]
        assert expected[0][0] == "a"
        result = incremental_network_expansion(network, origin, pois, 1)
        assert [(n.payload, n.network_distance) for n in result] == expected

    def test_results_sorted(self):
        network, origin, pois = build_scene(4)
        result = incremental_network_expansion(network, origin, pois, 8)
        distances = [r.network_distance for r in result]
        assert distances == sorted(distances)

    def test_euclidean_reported(self):
        network, origin, pois = build_scene(5)
        for r in incremental_network_expansion(network, origin, pois, 5):
            assert r.euclidean_distance <= r.network_distance + 1e-9

"""Tests for repro.network.index: protocol, exactness, and cost.

The central contract under test is *bit-identical exactness*: for every
origin, POI set and ``k``, :class:`HierarchicalIndex` must return the
same payloads, the same network distances (as floats, not within a
tolerance) and the same tie order as the :class:`DijkstraIndex`
reference and as the flattened-adjacency oracle in
:mod:`repro.testing.oracles`.  The hierarchy is only allowed to be
*cheaper*, never *different*.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.index.knn import poi_tie_key
from repro.network.dijkstra import DijkstraSearch, network_distance, origin_seeds
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.graph import NetworkLocation, SpatialNetwork
from repro.network.index import (
    DijkstraIndex,
    HierarchicalIndex,
    IndexStats,
    NetworkIndex,
)
from repro.testing import oracles


# ----------------------------------------------------------------------
# graph builders
# ----------------------------------------------------------------------


def grid_network(side: int = 4, spacing: float = 1.0) -> SpatialNetwork:
    network = SpatialNetwork()
    nodes = {}
    for i in range(side):
        for j in range(side):
            nodes[(i, j)] = network.add_node(Point(i * spacing, j * spacing))
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                network.add_edge(nodes[(i, j)], nodes[(i + 1, j)])
            if j + 1 < side:
                network.add_edge(nodes[(i, j)], nodes[(i, j + 1)])
    return network


def random_connected_network(seed: int, n: int = 30) -> SpatialNetwork:
    """A connected graph on jittered-grid positions with stretched lengths.

    Jittering a grid keeps node positions distinct (``add_edge`` rejects
    coincident endpoints); a random spanning tree plus extra chords gives
    varied topology; random length stretch >= 1 keeps every edge above
    its Euclidean chord, as the graph contract requires.
    """
    rng = random.Random(seed)
    network = SpatialNetwork()
    cols = int(math.ceil(math.sqrt(n)))
    ids = []
    for idx in range(n):
        x = (idx % cols) + rng.uniform(-0.3, 0.3)
        y = (idx // cols) + rng.uniform(-0.3, 0.3)
        ids.append(network.add_node(Point(x, y)))
    shuffled = ids[:]
    rng.shuffle(shuffled)
    for prev, node in zip(shuffled, shuffled[1:]):
        network.add_edge(
            prev,
            node,
            length=network.node_position(prev).distance_to(
                network.node_position(node)
            )
            * rng.uniform(1.0, 1.8),
        )
    for _ in range(n // 2):
        u, v = rng.sample(ids, 2)
        if network.edge_between(u, v) is None:
            network.add_edge(
                u,
                v,
                length=network.node_position(u).distance_to(
                    network.node_position(v)
                )
                * rng.uniform(1.0, 1.8),
            )
    return network


def two_component_network() -> SpatialNetwork:
    """Two disjoint triangles far apart."""
    network = SpatialNetwork()
    a = [network.add_node(Point(x, y)) for x, y in [(0, 0), (1, 0), (0, 1)]]
    b = [
        network.add_node(Point(x, y))
        for x, y in [(10, 10), (11, 10), (10, 11)]
    ]
    for tri in (a, b):
        network.add_edge(tri[0], tri[1])
        network.add_edge(tri[1], tri[2])
        network.add_edge(tri[0], tri[2])
    return network


def random_pois(network, rng, count):
    edges = list(network.edges())
    pois = []
    for i in range(count):
        edge = rng.choice(edges)
        offset = rng.uniform(0.0, edge.length)
        pois.append((network.location_at(edge, offset), f"poi-{i}"))
    return pois


def random_origin(network, rng):
    edges = list(network.edges())
    edge = rng.choice(edges)
    return network.location_at(edge, rng.uniform(0.0, edge.length))


def flatten(location: NetworkLocation) -> oracles.NetworkLoc:
    edge = location.edge
    return ("edge", edge.u, edge.v, location.offset, edge.length)


def adjacency_of(network):
    adjacency = {}
    for node in network.node_ids():
        adjacency[node] = [
            (other, edge.length) for other, edge in network.neighbors(node)
        ]
    return adjacency


def answers(index, origin, k):
    return [
        (n.payload, n.network_distance) for n in index.knn(origin, k)
    ]


# ----------------------------------------------------------------------
# protocol conformance
# ----------------------------------------------------------------------


class TestProtocol:
    def test_both_implementations_satisfy_protocol(self):
        network = grid_network()
        assert isinstance(DijkstraIndex(network), NetworkIndex)
        assert isinstance(HierarchicalIndex(network), NetworkIndex)

    def test_stats_reset(self):
        network = grid_network()
        index = DijkstraIndex(network)
        loc = network.location_at_node(0)
        index.network_distance(loc, network.location_at_node(5))
        assert index.stats.distance_queries == 1
        assert index.stats.settled_vertices > 0
        index.stats.reset()
        assert index.stats.distance_queries == 0
        assert index.stats.settled_vertices == 0

    def test_empty_and_nonpositive_k(self):
        network = grid_network()
        for index in (DijkstraIndex(network), HierarchicalIndex(network)):
            origin = network.location_at_node(0)
            assert index.knn(origin, 3) == []  # no POIs registered
            index.register_pois(random_pois(network, random.Random(0), 4))
            assert index.knn(origin, 0) == []


# ----------------------------------------------------------------------
# exactness: hierarchy == reference == oracle, bitwise
# ----------------------------------------------------------------------


class TestExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("leaf_size", [2, 4, 16])
    def test_knn_matches_reference_and_oracle(self, seed, leaf_size):
        rng = random.Random(seed)
        network = random_connected_network(seed, n=36)
        pois = random_pois(network, rng, 20)
        reference = DijkstraIndex(network)
        hierarchy = HierarchicalIndex(network, leaf_size=leaf_size)
        reference.register_pois(pois)
        hierarchy.register_pois(pois)
        adjacency = adjacency_of(network)
        flat_pois = [(flatten(loc), payload) for loc, payload in pois]
        for _ in range(6):
            origin = random_origin(network, rng)
            k = rng.randint(1, 8)
            expected = answers(reference, origin, k)
            got = answers(hierarchy, origin, k)
            oracle = oracles.oracle_network_knn(
                adjacency, flatten(origin), flat_pois, k
            )
            assert got == expected
            assert got == oracle

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_point_to_point_matches_dijkstra(self, seed):
        rng = random.Random(seed)
        network = random_connected_network(seed + 100, n=30)
        hierarchy = HierarchicalIndex(network, leaf_size=4)
        for _ in range(10):
            a = random_origin(network, rng)
            b = random_origin(network, rng)
            direct = network_distance(DijkstraSearch(network, origin_seeds(a)), a, b)
            indexed = hierarchy.network_distance(a, b)
            assert indexed == direct

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        leaf_size=st.integers(min_value=2, max_value=24),
        k=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_random_graphs(self, seed, leaf_size, k):
        rng = random.Random(seed)
        network = random_connected_network(seed, n=rng.randint(8, 40))
        pois = random_pois(network, rng, rng.randint(1, 16))
        reference = DijkstraIndex(network)
        hierarchy = HierarchicalIndex(network, leaf_size=leaf_size)
        reference.register_pois(pois)
        hierarchy.register_pois(pois)
        origin = random_origin(network, rng)
        assert answers(hierarchy, origin, k) == answers(
            reference, origin, k
        )

    def test_kth_place_ties(self):
        """Duplicate payloads at mirrored offsets tie exactly at the k-th
        place; the hierarchy must reproduce the reference's
        ``poi_tie_key``-then-registration order."""
        network = grid_network(side=3)
        edges = list(network.edges())
        pois = []
        for i, edge in enumerate(edges[:4]):
            # two POIs per edge at symmetric offsets, duplicated payloads
            pois.append((network.location_at(edge, 0.25), "dup"))
            pois.append((network.location_at(edge, 0.75), f"poi-{i}"))
        reference = DijkstraIndex(network)
        hierarchy = HierarchicalIndex(network, leaf_size=2)
        reference.register_pois(pois)
        hierarchy.register_pois(pois)
        origin = network.location_at_node(0)
        for k in range(1, len(pois) + 1):
            expected = answers(reference, origin, k)
            assert answers(hierarchy, origin, k) == expected
        full = reference.knn(origin, len(pois))
        keys = [
            (n.network_distance, poi_tie_key(n.payload)) for n in full
        ]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# disconnected graphs
# ----------------------------------------------------------------------


class TestDisconnected:
    def test_unreachable_pois_rank_last_with_inf(self):
        network = two_component_network()
        edges = list(network.edges())
        pois = [
            (network.location_at(edges[0], 0.3), "near"),
            (network.location_at(edges[3], 0.3), "far-component"),
        ]
        origin = network.location_at(edges[0], 0.0)
        for factory in (DijkstraIndex, HierarchicalIndex):
            index = factory(network)
            index.register_pois(pois)
            result = index.knn(origin, 2)
            assert [n.payload for n in result] == ["near", "far-component"]
            assert math.isfinite(result[0].network_distance)
            assert math.isinf(result[1].network_distance)

    def test_cross_component_distance_is_inf(self):
        network = two_component_network()
        edges = list(network.edges())
        a = network.location_at(edges[0], 0.5)
        b = network.location_at(edges[3], 0.5)
        hierarchy = HierarchicalIndex(network, leaf_size=2)
        assert math.isinf(hierarchy.network_distance(a, b))
        search = DijkstraSearch(network, origin_seeds(a))
        assert math.isinf(network_distance(search, a, b))

    def test_disconnected_matches_reference(self):
        rng = random.Random(7)
        network = two_component_network()
        pois = random_pois(network, rng, 6)
        reference = DijkstraIndex(network)
        hierarchy = HierarchicalIndex(network, leaf_size=2)
        reference.register_pois(pois)
        hierarchy.register_pois(pois)
        for edge in network.edges():
            origin = network.location_at(edge, 0.25)
            got = answers(hierarchy, origin, 6)
            expected = answers(reference, origin, 6)
            # inf == inf holds, so bitwise list equality still applies
            assert got == expected


# ----------------------------------------------------------------------
# build shape and determinism
# ----------------------------------------------------------------------


class TestBuild:
    def test_build_is_deterministic(self):
        network = random_connected_network(11, n=40)
        first = HierarchicalIndex(network, leaf_size=4)
        second = HierarchicalIndex(network, leaf_size=4)
        assert first.describe() == second.describe()
        rng = random.Random(3)
        pois = random_pois(network, rng, 12)
        first.register_pois(pois)
        second.register_pois(pois)
        origin = random_origin(network, rng)
        assert answers(first, origin, 5) == answers(
            second, origin, 5
        )

    def test_describe_shape(self):
        network = grid_network(side=5)
        hierarchy = HierarchicalIndex(network, leaf_size=4)
        info = hierarchy.describe()
        assert info["leaf_size"] == 4
        assert info["partitions"] >= info["leaves"] >= 2
        assert info["max_depth"] >= 1
        assert info["border_nodes"] > 0
        assert info["matrix_entries"] > 0

    def test_leaf_size_validation(self):
        network = grid_network()
        with pytest.raises(ValueError):
            HierarchicalIndex(network, leaf_size=1)

    def test_empty_network(self):
        network = SpatialNetwork()
        hierarchy = HierarchicalIndex(network)
        # No nodes -> no partitions; there is no valid origin either, so
        # the index is inert but constructible.
        assert hierarchy.describe()["partitions"] == 0


# ----------------------------------------------------------------------
# cost: the hierarchy must actually prune
# ----------------------------------------------------------------------


class TestCost:
    def test_settled_vertex_reduction(self):
        spec = RoadNetworkSpec(
            width=6.0, height=6.0, secondary_spacing=0.35, seed=5
        )
        network = generate_road_network(spec)
        rng = random.Random(5)
        pois = random_pois(network, rng, 60)
        reference = DijkstraIndex(network)
        hierarchy = HierarchicalIndex(network, leaf_size=32)
        reference.register_pois(pois)
        hierarchy.register_pois(pois)
        origins = [random_origin(network, rng) for _ in range(5)]
        for origin in origins:
            assert answers(hierarchy, origin, 8) == answers(
                reference, origin, 8
            )
        # Compare totals over identical query sets (answers checked above).
        assert (
            hierarchy.stats.settled_vertices
            < reference.stats.settled_vertices / 4
        )
        assert hierarchy.stats.pois_refined < len(pois) * len(origins)


class TestIndexStats:
    def test_dataclass_fields(self):
        stats = IndexStats()
        assert stats.knn_queries == 0
        assert stats.partitions_opened == 0

"""Tests for repro.network.dijkstra, validated against networkx."""

import json
import math
import random
import struct
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.network.dijkstra import (
    DijkstraSearch,
    network_distance,
    origin_seeds,
    shortest_path,
    shortest_path_tree,
)
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.graph import SpatialNetwork
from repro.testing.oracles import oracle_network_knn
from tests.test_network_index import (
    adjacency_of,
    flatten,
    random_connected_network,
    random_origin,
    random_pois,
)

GRID_ROUTES = Path(__file__).parent / "golden" / "shortest_path_grid.json"


def random_network(seed=0, size=2.0):
    spec = RoadNetworkSpec(width=size, height=size, secondary_spacing=size / 6,
                           seed=seed)
    return generate_road_network(spec)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def walk_back(tree, source, target):
    """The node sequence a predecessor list holds from ``source`` to
    ``target``, or ``None`` when the walk does not end at ``source``."""
    path = [target]
    while tree[path[-1]] >= 0:
        path.append(tree[path[-1]])
    if path[-1] != source:
        return None
    return path[::-1]


def settled_from(network, seeds):
    """Every distance a search from ``seeds`` settles, run to exhaustion."""
    search = DijkstraSearch(network, seeds)
    search.expand()
    return search.settled


def to_networkx(network: SpatialNetwork) -> nx.Graph:
    graph = nx.Graph()
    for node in network.node_ids():
        graph.add_node(node)
    for edge in network.edges():
        graph.add_edge(edge.u, edge.v, weight=edge.length)
    return graph


class TestShortestPathLengths:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_networkx(self, seed):
        network = random_network(seed)
        graph = to_networkx(network)
        source = next(network.node_ids())
        ours = settled_from(network, [(source, 0.0)])
        reference = nx.single_source_dijkstra_path_length(graph, source)
        assert set(ours) == set(reference)
        for node, dist in reference.items():
            assert ours[node] == pytest.approx(dist)

    def test_multi_source(self):
        network = random_network(1)
        nodes = list(network.node_ids())
        sources = [(nodes[0], 0.0), (nodes[len(nodes) // 2], 0.5)]
        ours = settled_from(network, sources)
        single_a = settled_from(network, [sources[0]])
        single_b = settled_from(network, [sources[1]])
        for node in ours:
            expected = min(single_a.get(node, math.inf), single_b.get(node, math.inf))
            assert ours[node] == pytest.approx(expected)

    def test_negative_source_distance_raises(self):
        network = random_network(0)
        source = next(network.node_ids())
        with pytest.raises(ValueError):
            DijkstraSearch(network, [(source, -1.0)])

    def test_targets_early_exit(self):
        network = random_network(3)
        nodes = list(network.node_ids())
        source, target = nodes[0], nodes[-1]
        search = DijkstraSearch(network, [(source, 0.0)])
        search.settle(target)
        assert target in search.settled


class TestDijkstraSearch:
    def test_bound_pauses_and_resumes(self):
        network = random_network(2)
        source = next(network.node_ids())
        full = settled_from(network, [(source, 0.0)])
        bound = max(full.values()) / 2.0
        search = DijkstraSearch(network, [(source, 0.0)])
        assert search.expand(bound=bound) is None
        assert search.settled == {n: d for n, d in full.items() if d <= bound}
        assert len(search.settled) < len(full)
        search.expand()
        assert list(search.settled.items()) == list(full.items())

    @given(seed=st.integers(min_value=0, max_value=2**31), restrict=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_resumed_in_any_order_is_bit_identical(self, seed, restrict):
        """Lookups in a random order == one full run == the oracle, as
        bit patterns, with and without an allowed-vertex set."""
        rng = random.Random(seed)
        network = random_connected_network(seed, n=rng.randint(8, 40))
        origin = random_origin(network, rng)
        nodes = list(network.node_ids())
        adjacency = adjacency_of(network)
        allowed = None
        if restrict:
            allowed = frozenset(rng.sample(nodes, k=max(1, 2 * len(nodes) // 3)))
            adjacency = {
                node: [(n, w) for n, w in edges if n in allowed]
                for node, edges in adjacency.items()
            }

        full = DijkstraSearch(network, origin_seeds(origin), allowed)
        full.expand()
        resumed = DijkstraSearch(network, origin_seeds(origin), allowed)
        rng.shuffle(nodes)
        for node in nodes:
            assert bits(resumed.settle(node)) == bits(
                full.settled.get(node, math.inf)
            )
        # Same values in the same settle order, however it was driven.
        assert list(resumed.settled.items()) == list(full.settled.items())

        pois = random_pois(network, rng, rng.randint(1, 16))
        expected = dict(
            oracle_network_knn(
                adjacency,
                flatten(origin),
                [(flatten(loc), payload) for loc, payload in pois],
                len(pois),
            )
        )
        lookups = DijkstraSearch(network, origin_seeds(origin), allowed)
        rng.shuffle(pois)
        for location, payload in pois:
            assert bits(network_distance(lookups, origin, location)) == bits(
                expected[payload]
            )


class TestShortestPath:
    def test_grid_routes_match_golden(self):
        """Node sequences on an exact grid, where equal-length routes
        abound: pins the strict-improvement predecessor rule and the
        ``(distance, id)`` settle order.  Recorded before the kernel
        refactor; regenerate only if the generator itself changes."""
        golden = json.loads(GRID_ROUTES.read_text())
        network = generate_road_network(
            RoadNetworkSpec(width=6, height=6, jitter=0.0, seed=0)
        )
        nodes = sorted(network.node_ids())
        rng = np.random.default_rng(golden["pair_seed"])
        assert len(golden["routes"]) == 50
        for route in golden["routes"]:
            source, target = (int(n) for n in rng.choice(nodes, size=2, replace=False))
            assert (source, target) == (route["source"], route["target"])
            assert shortest_path(network, source, target) == route["path"]

    def test_trivial_path(self):
        network = random_network(0)
        node = next(network.node_ids())
        assert shortest_path(network, node, node) == [node]

    def test_tree_holds_every_shortest_path(self):
        """Walking ``shortest_path_tree`` back from any target gives
        ``shortest_path``'s node sequence, on the grid where ties decide."""
        network = generate_road_network(
            RoadNetworkSpec(width=6, height=6, jitter=0.0, seed=0)
        )
        source = 312
        tree = shortest_path_tree(network, source)
        assert len(tree) == network.node_count
        assert [node for node, previous in enumerate(tree) if previous < 0] == [source]
        for target in list(network.node_ids())[::7]:
            assert walk_back(tree, source, target) == shortest_path(
                network, source, target
            )

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_tree_walks_equal_shortest_path(self, seed):
        """On stretched (curved-edge) graphs with a second component and
        an isolated node: every source's tree, walked back from every
        target, is ``shortest_path``'s node sequence, and ``None`` where
        that is ``None``.  Both come from one search, so each walk's
        summed edge length is also checked against networkx, which must
        leave out exactly the targets the walk cannot reach."""
        rng = random.Random(seed)
        network = random_connected_network(seed, n=rng.randint(4, 24))
        island = network.add_node(Point(-10.0, -10.0))
        second = [
            network.add_node(Point(50.0 + i + rng.uniform(-0.3, 0.3), rng.uniform(0, 3)))
            for i in range(rng.randint(2, 6))
        ]
        for u, v in zip(second, second[1:]):
            chord = network.node_position(u).distance_to(network.node_position(v))
            network.add_edge(u, v, length=chord * rng.uniform(1.0, 1.8))
        nodes = list(network.node_ids())
        graph = to_networkx(network)
        assert shortest_path_tree(network, island) == [-1] * len(nodes)
        for source in nodes:
            tree = shortest_path_tree(network, source)
            reference = nx.single_source_dijkstra_path_length(graph, source)
            assert len(tree) == len(nodes)
            for target in nodes:
                path = walk_back(tree, source, target)
                assert path == shortest_path(network, source, target)
                if path is None:
                    assert target not in reference
                    continue
                length = sum(
                    network.edge_between(u, v).length for u, v in zip(path, path[1:])
                )
                assert length == pytest.approx(reference[target])

    def test_rows_are_rebuilt_after_add_edge(self):
        """A shortcut added after a tree was grown reroutes the next tree."""
        net = SpatialNetwork()
        a, b, c, d = (
            net.add_node(Point(x, y)) for x, y in ((0, 0), (0, 1), (0.4, 1), (1, 0))
        )
        net.add_edge(a, b)
        net.add_edge(b, c)
        net.add_edge(c, d)
        assert shortest_path_tree(net, a) == [-1, a, b, c]
        net.add_edge(a, d)
        assert shortest_path_tree(net, a) == [-1, a, b, a]

    def test_rows_are_rebuilt_after_add_node(self):
        """A node added after a tree was grown has a row: its own tree is
        all -1, and older sources cannot reach it."""
        net = SpatialNetwork()
        a = net.add_node(Point(0.0, 0.0))
        b = net.add_node(Point(1.0, 0.0))
        net.add_edge(a, b)
        assert shortest_path_tree(net, a) == [-1, a]
        island = net.add_node(Point(5.0, 5.0))
        assert shortest_path_tree(net, island) == [-1, -1, -1]
        assert shortest_path_tree(net, a) == [-1, a, -1]

    @pytest.mark.parametrize("source", [-1, 2])
    def test_unknown_source_raises(self, source):
        """A seed outside ``0 <= node < node_count`` raises; with list
        state, -1 would otherwise alias the last node."""
        net = SpatialNetwork()
        a = net.add_node(Point(0.0, 0.0))
        b = net.add_node(Point(1.0, 0.0))
        net.add_edge(a, b)
        with pytest.raises(KeyError):
            shortest_path_tree(net, source)
        with pytest.raises(KeyError):
            shortest_path(net, source, a)
        with pytest.raises(KeyError):
            DijkstraSearch(net, [(a, 0.0), (source, 1.0)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_path_length_matches_distance(self, seed):
        network = random_network(seed)
        nodes = sorted(network.node_ids())
        source, target = nodes[0], nodes[-1]
        path = shortest_path(network, source, target)
        assert path is not None
        assert path[0] == source and path[-1] == target
        length = 0.0
        for u, v in zip(path, path[1:]):
            edge = network.edge_between(u, v)
            assert edge is not None, "path uses a non-existent edge"
            length += edge.length
        expected = DijkstraSearch(network, [(source, 0.0)]).settle(target)
        assert length == pytest.approx(expected)

    def test_unreachable_returns_none(self):
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(1, 0))
        c = net.add_node(Point(5, 5))
        d = net.add_node(Point(6, 5))
        net.add_edge(a, b)
        net.add_edge(c, d)
        assert shortest_path(net, a, c) is None


class TestNetworkDistance:
    def test_same_edge(self):
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(10, 0))
        edge = net.add_edge(a, b)
        loc1 = net.location_at(edge, 2.0)
        loc2 = net.location_at(edge, 7.5)
        search = DijkstraSearch(net, origin_seeds(loc1))
        assert network_distance(search, loc1, loc2) == pytest.approx(5.5)

    def test_symmetric(self):
        network = random_network(1)
        edges = list(network.edges())
        loc1 = network.location_at(edges[0], edges[0].length * 0.3)
        loc2 = network.location_at(edges[-1], edges[-1].length * 0.8)
        forward = network_distance(
            DijkstraSearch(network, origin_seeds(loc1)), loc1, loc2
        )
        backward = network_distance(
            DijkstraSearch(network, origin_seeds(loc2)), loc2, loc1
        )
        assert forward == pytest.approx(backward)

    def test_euclidean_lower_bound_property(self):
        """ED(a, b) <= ND(a, b) for all location pairs (Section 3.4)."""
        network = random_network(4)
        rng = np.random.default_rng(0)
        edges = list(network.edges())
        for _ in range(30):
            e1 = edges[int(rng.integers(len(edges)))]
            e2 = edges[int(rng.integers(len(edges)))]
            loc1 = network.location_at(e1, float(rng.uniform(0, e1.length)))
            loc2 = network.location_at(e2, float(rng.uniform(0, e2.length)))
            ed = loc1.point.distance_to(loc2.point)
            nd = network_distance(
                DijkstraSearch(network, origin_seeds(loc1)), loc1, loc2
            )
            assert ed <= nd + 1e-9

    def test_distance_to_self_is_zero(self):
        network = random_network(0)
        edge = next(network.edges())
        loc = network.location_at(edge, edge.length / 2)
        search = DijkstraSearch(network, origin_seeds(loc))
        assert network_distance(search, loc, loc) == pytest.approx(0.0)

    def test_disconnected_is_infinite(self):
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(1, 0))
        c = net.add_node(Point(5, 5))
        d = net.add_node(Point(6, 5))
        e1 = net.add_edge(a, b)
        e2 = net.add_edge(c, d)
        loc1 = net.location_at(e1, 0.5)
        loc2 = net.location_at(e2, 0.5)
        search = DijkstraSearch(net, origin_seeds(loc1))
        assert math.isinf(network_distance(search, loc1, loc2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bound_on_one_resumed_search(self, seed):
        """With ``bound``, a shared search answers exactly what a fresh
        unbounded one does within the bound and ``inf`` beyond it, whether
        the bounds that drove it so far were wider or narrower, and it
        never settles a vertex beyond the widest bound it was given."""
        network = random_network(seed)
        edges = list(network.edges())
        rng = np.random.default_rng(seed)

        def location():
            edge = edges[int(rng.integers(len(edges)))]
            return network.location_at(edge, float(rng.uniform(0, edge.length)))

        origin = location()
        shared = DijkstraSearch(network, origin_seeds(origin))
        widest = 0.0
        for _ in range(40):
            destination = location()
            exact = network_distance(
                DijkstraSearch(network, origin_seeds(origin)), origin, destination
            )
            bound = float(rng.choice([exact, exact * rng.uniform(0.3, 1.5), math.inf]))
            want = exact if exact <= bound else math.inf
            got = network_distance(shared, origin, destination, bound)
            assert bits(got) == bits(want)
            widest = max(widest, bound)
            assert max(shared.settled.values(), default=0.0) <= widest

    def test_triangle_inequality_on_sample(self):
        network = random_network(5)
        edges = list(network.edges())
        rng = np.random.default_rng(1)
        for _ in range(10):
            locs = []
            for _ in range(3):
                edge = edges[int(rng.integers(len(edges)))]
                locs.append(network.location_at(edge, float(rng.uniform(0, edge.length))))
            from_a = DijkstraSearch(network, origin_seeds(locs[0]))
            from_b = DijkstraSearch(network, origin_seeds(locs[1]))
            d_ab = network_distance(from_a, locs[0], locs[1])
            d_bc = network_distance(from_b, locs[1], locs[2])
            d_ac = network_distance(from_a, locs[0], locs[2])
            assert d_ac <= d_ab + d_bc + 1e-9

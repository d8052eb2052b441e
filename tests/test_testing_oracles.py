"""Unit tests for the brute-force differential-testing oracles."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.index.knn import poi_tie_key
from repro.testing.oracles import (
    certify_multi_oracle,
    certify_single_oracle,
    oracle_knn,
    oracle_network_knn,
    tie_key,
)

POIS = [
    (Point(0.0, 0.0), "origin"),
    (Point(1.0, 0.0), "east"),
    (Point(0.0, 1.0), "north"),
    (Point(1.0, 1.0), "corner"),
    (Point(3.0, 4.0), "far"),
]


class TestEuclideanOracles:
    def test_knn_basic_order(self):
        got = oracle_knn(POIS, Point(0.1, 0.0), 3)
        assert [n.payload for n in got] == ["origin", "east", "north"]
        assert got[0].distance == pytest.approx(0.1)

    def test_knn_ties_by_payload(self):
        got = oracle_knn(POIS, Point(0.5, 0.5), 4)
        # All four near POIs are equidistant from the center.
        assert [n.payload for n in got] == ["corner", "east", "north", "origin"]

    def test_knn_k_larger_than_set(self):
        assert len(oracle_knn(POIS, Point(0, 0), 99)) == len(POIS)

    def test_knn_rejects_negative_k(self):
        with pytest.raises(ValueError):
            oracle_knn(POIS, Point(0, 0), -1)

    def test_tie_key_mirrors_poi_tie_key(self):
        """The deliberate re-implementation must match the real one."""
        payloads = [0, 1, 2.5, -3, "a", "p10", "p2", "", True, None, 10**6]
        for payload in payloads:
            assert tie_key(payload) == poi_tie_key(payload)


class TestCertifySingle:
    def test_interior_disk_has_positive_slack(self):
        verdict = certify_single_oracle(Point(1.0, 0.0), Point(0.0, 0.0), 3.0, 1.0)
        assert verdict.slack == pytest.approx(1.0)
        assert verdict.definitely_covered(0.5)
        assert not verdict.definitely_uncovered()

    def test_escaping_disk_has_negative_slack(self):
        verdict = certify_single_oracle(Point(2.0, 0.0), Point(0.0, 0.0), 3.0, 2.0)
        assert verdict.slack == pytest.approx(-1.0)
        assert verdict.definitely_uncovered()
        assert not verdict.definitely_covered(1e-7)

    def test_boundary_touch_is_exact_zero(self):
        """Axis-aligned dyadic configuration: slack is bit-for-bit 0.0."""
        verdict = certify_single_oracle(
            Point(0.25, 0.0), Point(0.0, 0.0), 0.5, 0.25
        )
        assert verdict.slack == 0.0
        assert verdict.definitely_covered(1e-7, allow_exact_zero=True)
        assert not verdict.definitely_covered(1e-7)
        assert not verdict.definitely_uncovered()

    def test_coincident_query_and_peer(self):
        verdict = certify_single_oracle(Point(0.0, 0.0), Point(0.0, 0.0), 1.0, 0.5)
        assert verdict.slack == pytest.approx(0.5)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            certify_single_oracle(Point(0, 0), Point(1, 0), 1.0, -0.1)


class TestCertifyMulti:
    def test_no_circles_is_uncovered(self):
        verdict = certify_multi_oracle(Point(0, 0), [], 1.0)
        assert verdict.slack == -math.inf
        assert verdict.definitely_uncovered()

    def test_single_circle_matches_single_oracle(self):
        query, center, radius, distance = Point(1.0, 0.5), Point(0.0, 0.0), 4.0, 1.5
        multi = certify_multi_oracle(query, [(center, radius)], distance)
        single = certify_single_oracle(query, center, radius, distance)
        assert multi.slack == pytest.approx(single.slack, abs=1e-9)

    def test_two_half_circles_cover_jointly(self):
        # Neither circle alone covers the unit disk at the origin; together
        # they do, with visible slack.
        circles = [(Point(-0.5, 0.0), 2.0), (Point(0.5, 0.0), 2.0)]
        verdict = certify_multi_oracle(Point(0.0, 0.0), circles, 1.0)
        single = certify_single_oracle(Point(0.0, 0.0), Point(-0.5, 0.0), 2.0, 1.0)
        assert verdict.slack > single.slack
        assert verdict.definitely_covered(0.1)

    def test_gap_between_circles_is_detected(self):
        # Two small circles leave the top of the target boundary exposed.
        circles = [(Point(-1.0, 0.0), 1.2), (Point(1.0, 0.0), 1.2)]
        verdict = certify_multi_oracle(Point(0.0, 0.0), circles, 1.0)
        assert verdict.definitely_uncovered()

    def test_zero_radius_disk_degenerates_to_point(self):
        verdict = certify_multi_oracle(Point(0.5, 0.0), [(Point(0, 0), 1.0)], 0.0)
        assert verdict.slack == pytest.approx(0.5)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            certify_multi_oracle(Point(0, 0), [(Point(0, 0), 1.0)], 0.5, samples=4)


class TestNetworkOracle:
    #  0 --1.0-- 1 --1.0-- 2     (a path graph)
    ADJ = {0: [(1, 1.0)], 1: [(0, 1.0), (2, 1.0)], 2: [(1, 1.0)]}

    def test_node_to_node(self):
        got = oracle_network_knn(
            self.ADJ, ("node", 0), [(("node", 2), "far"), (("node", 1), "mid")], 2
        )
        assert got == [("mid", 1.0), ("far", 2.0)]

    def test_same_edge_shortcut(self):
        origin = ("edge", 0, 1, 0.25, 1.0)
        poi = ("edge", 0, 1, 0.75, 1.0)
        got = oracle_network_knn(self.ADJ, origin, [(poi, "p")], 1)
        assert got == [("p", 0.5)]

    def test_same_edge_reversed_orientation(self):
        origin = ("edge", 0, 1, 0.25, 1.0)
        poi = ("edge", 1, 0, 0.25, 1.0)  # same edge, seen from the other end
        got = oracle_network_knn(self.ADJ, origin, [(poi, "p")], 1)
        assert got == [("p", 0.5)]

    def test_cross_edge_goes_through_node(self):
        origin = ("edge", 0, 1, 0.5, 1.0)
        poi = ("edge", 1, 2, 0.5, 1.0)
        got = oracle_network_knn(self.ADJ, origin, [(poi, "p")], 1)
        assert got == [("p", 1.0)]

    def test_disconnected_poi_is_infinitely_far(self):
        adj = {**self.ADJ, 7: []}
        got = oracle_network_knn(adj, ("node", 0), [(("node", 7), "island")], 1)
        assert got[0][0] == "island"
        assert math.isinf(got[0][1])

    def test_ties_break_by_payload(self):
        got = oracle_network_knn(
            self.ADJ,
            ("node", 1),
            [(("node", 0), "b"), (("node", 2), "a")],
            2,
        )
        assert [payload for payload, _ in got] == ["a", "b"]


@st.composite
def network_cases(draw):
    """A random graph with integer lengths (so distances tie often and
    every sum is exact), a two-node island, an origin on a node or an
    edge, POIs on nodes and edges -- two of them on the origin's edge,
    one per orientation -- and any ``k`` from 0 to past the POI count."""
    size = draw(st.integers(2, 10))
    edges = {}
    for u, v, length in draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1), st.integers(1, 3)),
            min_size=1,
            max_size=25,
        )
    ):
        if u != v and (v, u) not in edges:
            edges.setdefault((u, v), float(length))
    edges[(size, size + 1)] = 2.0  # the island
    edge_list = sorted(edges.items())

    def edge_location():
        (u, v), length = draw(st.sampled_from(edge_list))
        offset = draw(st.integers(0, 2 * int(length))) / 2.0
        if draw(st.booleans()):
            return ("edge", v, u, length - offset, length)
        return ("edge", u, v, offset, length)

    def location():
        if draw(st.booleans()):
            return ("node", draw(st.integers(0, size + 1)))
        return edge_location()

    origin = location()
    locations = [location() for _ in range(draw(st.integers(0, 12)))]
    if origin[0] == "edge":
        _, u, v, offset, length = origin
        here = draw(st.integers(0, 2 * int(length))) / 2.0
        locations += [("edge", u, v, here, length), ("edge", v, u, length - here, length)]
    pois = [(loc, f"p{index}") for index, loc in enumerate(locations)]
    k = draw(st.integers(0, len(pois) + 2))
    return size + 2, edge_list, origin, pois, k


def exhaustive_network_knn(node_count, edge_list, origin, pois, k):
    """Every node's distance from networkx, then every POI scored."""
    graph = nx.Graph()
    graph.add_nodes_from(range(node_count))
    for (u, v), length in edge_list:
        graph.add_edge(u, v, weight=length)
    if origin[0] == "node":
        source = origin[1]
    else:
        _, u, v, offset, length = origin
        source = "origin"
        graph.add_edge(source, u, weight=offset)
        graph.add_edge(source, v, weight=length - offset)
    node_dist = nx.single_source_dijkstra_path_length(graph, source)
    scored = []
    for loc, payload in pois:
        if loc[0] == "node":
            best = node_dist.get(loc[1], math.inf)
        else:
            _, a, b, offset, length = loc
            best = min(
                node_dist.get(a, math.inf) + offset,
                node_dist.get(b, math.inf) + length - offset,
            )
            if origin[0] == "edge" and {a, b} == {origin[1], origin[2]}:
                along = offset if a == origin[1] else length - offset
                best = min(best, abs(origin[3] - along))
        scored.append((best, tie_key(payload), payload))
    scored.sort()
    return [(payload, distance) for distance, _, payload in scored[:k]]


class TestNetworkOracleAgainstExhaustiveSearch:
    """Stopping at the k-th answer changes no answer: the oracle against
    networkx's distances to every node followed by a full scan."""

    @given(network_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_full_search(self, case):
        node_count, edge_list, origin, pois, k = case
        adjacency = {node: [] for node in range(node_count)}
        for (u, v), length in edge_list:
            adjacency[u].append((v, length))
            adjacency[v].append((u, length))
        assert oracle_network_knn(adjacency, origin, pois, k) == exhaustive_network_knn(
            node_count, edge_list, origin, pois, k
        )

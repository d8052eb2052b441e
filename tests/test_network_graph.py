"""Tests for repro.network.graph."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.network.graph import Edge, NetworkLocation, RoadClass, SpatialNetwork
from repro.network.loaders import load_bundled_extract
from repro.obs import OBS, MetricsRegistry, observed
from repro.testing.oracles import oracle_snap
from tests.test_network_index import random_connected_network


def simple_square_network():
    """Four nodes in a unit square with edges along the sides."""
    net = SpatialNetwork()
    a = net.add_node(Point(0, 0))
    b = net.add_node(Point(1, 0))
    c = net.add_node(Point(1, 1))
    d = net.add_node(Point(0, 1))
    net.add_edge(a, b)
    net.add_edge(b, c)
    net.add_edge(c, d)
    net.add_edge(d, a)
    return net, (a, b, c, d)


class TestRoadClass:
    def test_speed_limits(self):
        assert RoadClass.PRIMARY_HIGHWAY.speed_limit_mph == 65.0
        assert RoadClass.SECONDARY_ROAD.speed_limit_mph == 45.0
        assert RoadClass.RURAL_ROAD.speed_limit_mph == 30.0


class TestEdge:
    def test_invalid_length(self):
        for length in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Edge(0, 1, length)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Edge(2, 2, 1.0)

    def test_other_end(self):
        edge = Edge(3, 7, 1.0)
        assert edge.other_end(3) == 7
        assert edge.other_end(7) == 3
        with pytest.raises(ValueError):
            edge.other_end(9)

    def test_key_canonical(self):
        assert Edge(7, 3, 1.0).key() == (3, 7)
        assert Edge(3, 7, 1.0).key() == (3, 7)


class TestSpatialNetwork:
    def test_counts(self):
        net, _ = simple_square_network()
        assert net.node_count == 4
        assert net.edge_count == 4
        assert net.total_length() == pytest.approx(4.0)

    def test_add_edge_requires_nodes(self):
        net = SpatialNetwork()
        with pytest.raises(KeyError):
            net.add_edge(0, 1)

    def test_edge_length_defaults_to_euclidean(self):
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(3, 4))
        edge = net.add_edge(a, b)
        assert edge.length == pytest.approx(5.0)

    def test_curved_edge_longer_allowed(self):
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(1, 0))
        edge = net.add_edge(a, b, length=2.5)
        assert edge.length == 2.5

    def test_edge_shorter_than_euclidean_rejected(self):
        """Shorter-than-chord lengths would break the lower-bound property."""
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(2, 0))
        with pytest.raises(ValueError):
            net.add_edge(a, b, length=1.0)

    def test_coincident_nodes_rejected(self):
        net = SpatialNetwork()
        a = net.add_node(Point(1, 1))
        b = net.add_node(Point(1, 1))
        with pytest.raises(ValueError):
            net.add_edge(a, b)

    def test_non_finite_node_rejected(self):
        net = SpatialNetwork()
        for position in (Point(math.nan, 0), Point(0, math.inf), Point(-math.inf, 1)):
            with pytest.raises(ValueError, match="must be finite"):
                net.add_node(position)
        assert net.node_count == 0

    def test_neighbors_and_degree(self):
        net, (a, b, c, d) = simple_square_network()
        assert net.degree(a) == 2
        neighbor_ids = {n for n, _ in net.neighbors(a)}
        assert neighbor_ids == {b, d}

    def test_edges_iterated_once(self):
        net, _ = simple_square_network()
        assert len(list(net.edges())) == 4

    def test_connectivity(self):
        net, (a, b, c, d) = simple_square_network()
        assert net.is_connected()
        lonely = net.add_node(Point(5, 5))
        assert not net.is_connected()
        assert lonely not in net.largest_component_nodes()

    def test_empty_network_connected(self):
        assert SpatialNetwork().is_connected()


class TestLocations:
    def test_location_at(self):
        net, (a, b, _, _) = simple_square_network()
        edge = net.edge_between(a, b)
        loc = net.location_at(edge, 0.25)
        assert loc.point == Point(0.25, 0.0)
        assert loc.offset_from_v == pytest.approx(0.75)

    def test_location_at_clamps(self):
        net, (a, b, _, _) = simple_square_network()
        edge = net.edge_between(a, b)
        assert net.location_at(edge, -1.0).offset == 0.0
        assert net.location_at(edge, 99.0).offset == edge.length

    def test_location_at_node(self):
        net, (a, _, _, _) = simple_square_network()
        loc = net.location_at_node(a)
        assert loc.point == Point(0, 0)
        assert loc.offset in (0.0, loc.edge.length)

    def test_location_at_isolated_node_raises(self):
        net = SpatialNetwork()
        lonely = net.add_node(Point(0, 0))
        with pytest.raises(ValueError):
            net.location_at_node(lonely)

    def test_invalid_offset_raises(self):
        edge = Edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            NetworkLocation(edge, 2.0, Point(0, 0))

    def test_snap_onto_edge(self):
        net, (a, b, _, _) = simple_square_network()
        loc = net.snap(Point(0.5, -0.3))
        assert loc.edge.key() == net.edge_between(a, b).key()
        assert loc.point.x == pytest.approx(0.5)
        assert loc.point.y == pytest.approx(0.0)

    def test_snap_onto_vertex(self):
        net, _ = simple_square_network()
        loc = net.snap(Point(-1, -1))
        assert loc.point == Point(0, 0)

    def test_snap_empty_raises(self):
        with pytest.raises(ValueError):
            SpatialNetwork().snap(Point(0, 0))

    def test_nearest_node(self):
        net, (a, _, c, _) = simple_square_network()
        assert net.nearest_node(Point(0.1, 0.1)) == a
        assert net.nearest_node(Point(0.9, 0.9)) == c

    def test_nearest_node_empty_raises(self):
        with pytest.raises(ValueError):
            SpatialNetwork().nearest_node(Point(0, 0))


# ----------------------------------------------------------------------
# snap's edge grid against the linear-scan oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def extract():
    return load_bundled_extract()


def extent_of(network):
    xs = [network.node_position(node).x for node in network.node_ids()]
    ys = [network.node_position(node).y for node in network.node_ids()]
    return min(xs), min(ys), max(xs), max(ys)


def assert_snaps_like_the_scan(network, points):
    """``snap`` == ``oracle_snap`` on edge, offset and point, float for float."""
    edges = list(network.edges())
    rows = [
        (*network.node_position(edge.u), *network.node_position(edge.v), edge.length)
        for edge in edges
    ]
    for point in points:
        index, offset, projected = oracle_snap(rows, (point.x, point.y))
        location = network.snap(point)
        assert location.edge is edges[index], point
        assert location.offset == offset, point
        assert location.point == Point(*projected), point


def interior_points(network, rng, count):
    min_x, min_y, max_x, max_y = extent_of(network)
    return [
        Point(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y))
        for _ in range(count)
    ]


def outside_points(network, rng, count):
    """Up to 0.3 spans outside the extent, then ~1e6 spans away on every side."""
    min_x, min_y, max_x, max_y = extent_of(network)
    span_x, span_y = max_x - min_x, max_y - min_y
    near = [
        Point(
            rng.uniform(min_x - 0.3 * span_x, max_x + 0.3 * span_x),
            rng.uniform(min_y - 0.3 * span_y, max_y + 0.3 * span_y),
        )
        for _ in range(count)
    ]
    far = [
        Point(min_x + fx * 1e6 * span_x, min_y + fy * 1e6 * span_y)
        for fx in (-1.0, 0.5, 1.0)
        for fy in (-1.0, 0.5, 1.0)
        if (fx, fy) != (0.5, 0.5)
    ]
    return near + far


def on_edge_points(network, rng, count):
    edges = list(network.edges())
    return [
        network.location_at(edge, rng.uniform(0.0, edge.length)).point
        for edge in rng.choices(edges, k=count)
    ]


def node_points(network, rng, count):
    """Node positions: every incident edge is exactly equally near."""
    nodes = list(network.node_ids())
    return [
        network.node_position(node)
        for node in rng.sample(nodes, min(count, len(nodes)))
    ]


FAMILIES = [interior_points, outside_points, on_edge_points, node_points]


class TestSnapGrid:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_extract_matches_scan(self, extract, family):
        assert_snaps_like_the_scan(extract, family(extract, random.Random(13), 250))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed, nodes", [(0, 4), (1, 30), (2, 250), (3, 600)])
    def test_curved_network_matches_scan(self, family, seed, nodes):
        """Stretched lengths (offset != chord offset) and chords that
        cross many cells."""
        network = random_connected_network(seed, nodes)
        assert any(
            edge.length
            > network.node_position(edge.u).distance_to(network.node_position(edge.v))
            for edge in network.edges()
        )
        assert_snaps_like_the_scan(network, family(network, random.Random(seed), 250))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(2, 80),
        x=st.floats(-40.0, 40.0),
        y=st.floats(-40.0, 40.0),
    )
    def test_any_point_matches_scan(self, seed, nodes, x, y):
        network = random_connected_network(seed, nodes)
        assert_snaps_like_the_scan(network, [Point(x, y)])

    def test_collinear_network(self):
        """Zero height: the grid is a single row of cells."""
        network = SpatialNetwork()
        ids = [network.add_node(Point(float(i), 2.0)) for i in range(6)]
        for u, v in zip(ids, ids[1:]):
            network.add_edge(u, v)
        rng = random.Random(4)
        for family in FAMILIES:
            assert_snaps_like_the_scan(network, family(network, rng, 40))

    def test_tie_goes_to_the_first_edge_in_edges_order(self):
        """A star's hub is equally near every spoke, in whichever cell."""
        network = SpatialNetwork()
        hub = network.add_node(Point(5.0, 5.0))
        tips = [
            network.add_node(Point(5.0 + 4.0 * math.cos(a), 5.0 + 4.0 * math.sin(a)))
            for a in (2.0, 4.0, 0.5, 5.5, 3.0)
        ]
        for tip in tips:
            network.add_edge(hub, tip)
        assert network.snap(Point(5.0, 5.0)).edge is next(network.edges())

    def test_new_edge_is_seen_after_a_snap(self):
        net, _ = simple_square_network()
        point = Point(0.5, 0.4)
        assert net.snap(point).point == Point(0.5, 0.0)
        left = net.add_node(Point(0.25, 0.5))
        right = net.add_node(Point(0.75, 0.5))
        closer = net.add_edge(left, right)
        location = net.snap(point)
        assert location.edge is closer
        assert location.point == Point(0.5, 0.5)
        # ... and one outside the extent the first grid was laid over.
        far_a = net.add_node(Point(7.0, 7.0))
        far_b = net.add_node(Point(8.0, 7.0))
        outlier = net.add_edge(far_a, far_b)
        assert net.snap(Point(7.5, 7.1)).edge is outlier

    def test_non_finite_point_raises(self):
        net, _ = simple_square_network()
        for bad in (Point(math.inf, 0.0), Point(0.0, math.nan)):
            with pytest.raises(ValueError):
                net.snap(bad)


def snap_counters(network, points, enabled=True):
    """(calls, edges scanned) the ``network.snap.*`` counters record."""
    previous = OBS.registry
    with observed(enabled=enabled):
        OBS.registry = MetricsRegistry()
        try:
            for point in points:
                network.snap(point)
            calls = OBS.registry.counter("network.snap.calls").value
            scanned = OBS.registry.counter("network.snap.edges_scanned").value
        finally:
            OBS.registry = previous
    return calls, scanned


class TestSnapWork:
    """Clock-free gate: a regression to a full scan fails here."""

    def test_on_edge_snaps_scan_a_sliver_of_the_extract(self, extract):
        points = on_edge_points(extract, random.Random(21), 300)
        calls, scanned = snap_counters(extract, points)
        assert calls == len(points)
        assert scanned / calls < 0.02 * extract.edge_count

    def test_far_points_scan_a_bounded_part_of_the_extract(self, extract):
        """~1e6 spans away on every side: the search starts at the
        nearest cell and reads only the cells about as near as the
        winner, not the rings between the point and the grid."""
        far = outside_points(extract, random.Random(0), 0)
        assert len(far) == 8
        for point in far:
            calls, scanned = snap_counters(extract, [point])
            assert calls == 1
            assert scanned < 0.05 * extract.edge_count, point

    def test_disabled_obs_records_nothing(self, extract):
        assert snap_counters(extract, [Point(3.0, 3.0)], enabled=False) == (0, 0)

"""Tests for repro.network.loaders: TIGER/OSM parsing, the committed
extract, and the deterministic downsampler.

Malformed-input tests assert on the *precise* error text (file, line,
field) because those messages are the loader's user interface: a
truncated download must be diagnosable from the exception alone.
"""

import gzip
import math
import random

import pytest

from repro.geometry.point import Point
from repro.network.dijkstra import DijkstraSearch, network_distance, origin_seeds
from repro.network.graph import RoadClass, SpatialNetwork
from repro.network.index import DijkstraIndex, HierarchicalIndex
from repro.network.loaders import (
    LOS_ANGELES,
    MILES_PER_DEGREE,
    RIVERSIDE,
    RegionFrame,
    bundled_extract_paths,
    downsample,
    load_bundled_extract,
    load_osm_xml,
    load_tiger,
    write_tiger,
)
from repro.testing import oracles

SAMPLE_OSM = bundled_extract_paths()[0].replace(
    "la_extract_5k.cnode.gz", "sample.osm"
)


def small_network() -> SpatialNetwork:
    network = SpatialNetwork()
    a = network.add_node(Point(0.0, 0.0))
    b = network.add_node(Point(1.0, 0.0))
    c = network.add_node(Point(1.0, 1.0))
    network.add_edge(a, b, RoadClass.PRIMARY_HIGHWAY)
    network.add_edge(b, c, RoadClass.RURAL_ROAD, length=1.5)
    return network


# ----------------------------------------------------------------------
# region frames
# ----------------------------------------------------------------------


class TestRegionFrame:
    def test_anchor_projects_to_origin(self):
        for frame in (LOS_ANGELES, RIVERSIDE):
            origin = frame.project(frame.anchor_lon, frame.anchor_lat)
            assert origin.x == pytest.approx(0.0)
            assert origin.y == pytest.approx(0.0)

    def test_one_degree_north_is_69_miles(self):
        point = LOS_ANGELES.project(
            LOS_ANGELES.anchor_lon, LOS_ANGELES.anchor_lat + 1.0
        )
        assert point.y == pytest.approx(MILES_PER_DEGREE)

    def test_longitude_shrinks_with_latitude(self):
        east = LOS_ANGELES.project(
            LOS_ANGELES.anchor_lon + 1.0, LOS_ANGELES.anchor_lat
        )
        assert east.x < MILES_PER_DEGREE
        assert east.x == pytest.approx(
            MILES_PER_DEGREE * math.cos(math.radians(34.02))
        )


# ----------------------------------------------------------------------
# TIGER round trip
# ----------------------------------------------------------------------


class TestTigerRoundTrip:
    def test_plain_round_trip(self, tmp_path):
        network = small_network()
        nodes, edges = tmp_path / "g.cnode", tmp_path / "g.cedge"
        write_tiger(network, nodes, edges)
        reloaded = load_tiger(nodes, edges)
        assert reloaded.node_count == network.node_count
        assert reloaded.edge_count == network.edge_count
        for edge in network.edges():
            twin = reloaded.edge_between(edge.u, edge.v)
            assert twin is not None
            assert twin.length == edge.length
            assert twin.road_class is edge.road_class

    def test_gzip_round_trip_and_byte_determinism(self, tmp_path):
        network = small_network()
        first_n, first_e = tmp_path / "a.cnode.gz", tmp_path / "a.cedge.gz"
        second_n, second_e = tmp_path / "b.cnode.gz", tmp_path / "b.cedge.gz"
        write_tiger(network, first_n, first_e)
        write_tiger(network, second_n, second_e)
        assert first_n.read_bytes() == second_n.read_bytes()
        assert first_e.read_bytes() == second_e.read_bytes()
        reloaded = load_tiger(first_n, first_e)
        assert reloaded.node_count == 3
        assert reloaded.edge_count == 2

    def test_scale_applies_to_coordinates_and_lengths(self, tmp_path):
        network = small_network()
        nodes, edges = tmp_path / "g.cnode", tmp_path / "g.cedge"
        write_tiger(network, nodes, edges)
        doubled = load_tiger(nodes, edges, scale=2.0)
        assert doubled.node_position(1).x == pytest.approx(2.0)
        assert doubled.total_length() == pytest.approx(
            2.0 * network.total_length()
        )

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        nodes = tmp_path / "g.cnode"
        edges = tmp_path / "g.cedge"
        nodes.write_text("# header\n\n0 0.0 0.0\n1 1.0 0.0\n")
        edges.write_text("# header\n\n0 0 1 1.0\n")
        network = load_tiger(nodes, edges)
        assert network.node_count == 2
        assert network.edge_count == 1


class TestTigerErrors:
    def _files(self, tmp_path, node_text, edge_text="0 0 1 1.0\n"):
        nodes = tmp_path / "bad.cnode"
        edges = tmp_path / "bad.cedge"
        nodes.write_text(node_text)
        edges.write_text(edge_text)
        return nodes, edges

    def test_truncated_node_line(self, tmp_path):
        nodes, edges = self._files(tmp_path, "0 0.0 0.0\n1 1.0\n")
        with pytest.raises(ValueError, match=r"bad\.cnode:2: expected 3 fields"):
            load_tiger(nodes, edges)

    def test_non_numeric_node(self, tmp_path):
        nodes, edges = self._files(tmp_path, "0 zero 0.0\n")
        with pytest.raises(ValueError, match=r"bad\.cnode:1: non-numeric"):
            load_tiger(nodes, edges)

    def test_duplicate_node_id(self, tmp_path):
        nodes, edges = self._files(tmp_path, "0 0.0 0.0\n0 1.0 0.0\n")
        with pytest.raises(
            ValueError, match=r"bad\.cnode:2: duplicate node id 0"
        ):
            load_tiger(nodes, edges)

    def test_truncated_edge_line(self, tmp_path):
        nodes, edges = self._files(
            tmp_path, "0 0.0 0.0\n1 1.0 0.0\n", "0 0 1\n"
        )
        with pytest.raises(
            ValueError, match=r"bad\.cedge:1: expected 4 or 5 fields"
        ):
            load_tiger(nodes, edges)

    def test_unknown_node_reference(self, tmp_path):
        nodes, edges = self._files(
            tmp_path, "0 0.0 0.0\n1 1.0 0.0\n", "0 0 9 1.0\n"
        )
        with pytest.raises(
            ValueError, match=r"bad\.cedge:1: edge references unknown node id 9"
        ):
            load_tiger(nodes, edges)

    def test_self_loop(self, tmp_path):
        nodes, edges = self._files(
            tmp_path, "0 0.0 0.0\n1 1.0 0.0\n", "0 0 0 1.0\n"
        )
        with pytest.raises(ValueError, match=r"bad\.cedge:1: self-loop"):
            load_tiger(nodes, edges)

    def test_unknown_cfcc_class(self, tmp_path):
        nodes, edges = self._files(
            tmp_path, "0 0.0 0.0\n1 1.0 0.0\n", "0 0 1 1.0 Z9\n"
        )
        with pytest.raises(
            ValueError, match=r"bad\.cedge:1: unknown CFCC class 'Z9'"
        ):
            load_tiger(nodes, edges)

    @pytest.mark.parametrize("xy", ["nan 0.0", "0.0 inf"])
    def test_non_finite_node_carries_line_context(self, tmp_path, xy):
        nodes, edges = self._files(tmp_path, f"1 1.0 0.0\n0 {xy}\n")
        with pytest.raises(ValueError, match=r"bad\.cnode:2: .*must be finite"):
            load_tiger(nodes, edges)

    @pytest.mark.parametrize("length", ["nan", "inf"])
    def test_non_finite_length_carries_line_context(self, tmp_path, length):
        # ``nan`` used to load and leave node 1 unreachable from node 0.
        nodes, edges = self._files(
            tmp_path, "0 0.0 0.0\n1 1.0 0.0\n", f"0 0 1 {length}\n"
        )
        with pytest.raises(
            ValueError, match=r"bad\.cedge:1: .*finite and positive"
        ):
            load_tiger(nodes, edges)

    def test_sub_euclidean_length_carries_line_context(self, tmp_path):
        nodes, edges = self._files(
            tmp_path, "0 0.0 0.0\n1 1.0 0.0\n", "0 0 1 0.5\n"
        )
        with pytest.raises(
            ValueError, match=r"bad\.cedge:1: .*Euclidean"
        ):
            load_tiger(nodes, edges)


# ----------------------------------------------------------------------
# OSM XML
# ----------------------------------------------------------------------


class TestOsmXml:
    def test_sample_fixture_parses(self):
        network = load_osm_xml(SAMPLE_OSM, frame=LOS_ANGELES)
        # 8 road nodes (the building-only way and its 2 nodes are
        # dropped), 8 segments across the four highway-tagged ways.
        assert network.node_count == 8
        assert network.edge_count == 8
        classes = {edge.road_class for edge in network.edges()}
        assert classes == {
            RoadClass.PRIMARY_HIGHWAY,
            RoadClass.SECONDARY_ROAD,
            RoadClass.RURAL_ROAD,
        }
        assert network.is_connected()

    def test_keep_untagged_ways(self):
        network = load_osm_xml(
            SAMPLE_OSM, frame=LOS_ANGELES, keep_untagged_ways=True
        )
        assert network.node_count == 10
        assert network.edge_count == 9

    def test_auto_frame_anchors_at_mean(self):
        auto = load_osm_xml(SAMPLE_OSM)
        anchored = load_osm_xml(SAMPLE_OSM, frame=LOS_ANGELES)
        assert auto.node_count == anchored.node_count
        # Same chords, different anchor: total length agrees closely.
        assert auto.total_length() == pytest.approx(
            anchored.total_length(), rel=1e-4
        )

    def test_pbf_suffix_rejected(self, tmp_path):
        path = tmp_path / "extract.osm.pbf"
        path.write_bytes(b"\x00\x00\x00\x0dmockpbf")
        with pytest.raises(ValueError, match="PBF extracts are not supported"):
            load_osm_xml(path)

    def test_pbf_magic_rejected_despite_suffix(self, tmp_path):
        path = tmp_path / "extract.osm"
        path.write_bytes(b"\x00\x00\x00\x0dmockpbf")
        with pytest.raises(ValueError, match="osmium cat"):
            load_osm_xml(path)

    def test_malformed_xml(self, tmp_path):
        path = tmp_path / "broken.osm"
        path.write_text("<osm><node id='1' lon='0' lat='0'/>")
        with pytest.raises(ValueError, match="not well-formed OSM XML"):
            load_osm_xml(path)

    def test_wrong_root_element(self, tmp_path):
        path = tmp_path / "wrong.osm"
        path.write_text("<gpx></gpx>")
        with pytest.raises(ValueError, match="root element is <gpx>"):
            load_osm_xml(path)

    def test_truncated_extract_names_missing_node(self, tmp_path):
        path = tmp_path / "truncated.osm"
        path.write_text(
            "<osm>"
            "<node id='1' lon='-118.41' lat='34.02'/>"
            "<way id='7'><nd ref='1'/><nd ref='2'/>"
            "<tag k='highway' v='primary'/></way>"
            "</osm>"
        )
        with pytest.raises(
            ValueError,
            match=r"way 7 references node 2 absent.*truncated file\?",
        ):
            load_osm_xml(path)

    def test_non_numeric_node_attributes(self, tmp_path):
        path = tmp_path / "nan.osm"
        path.write_text("<osm><node id='1' lon='west' lat='34'/></osm>")
        with pytest.raises(
            ValueError, match="missing or non-numeric id/lon/lat"
        ):
            load_osm_xml(path)

    @pytest.mark.parametrize(
        "lon, lat", [("nan", "34"), ("-118.4", "inf"), ("500", "34")]
    )
    def test_non_finite_node_attributes_name_the_node(self, tmp_path, lon, lat):
        path = tmp_path / "nan.osm"
        path.write_text(
            "<osm><node id='1' lon='-118.41' lat='34.02'/>"
            f"<node id='2' lon='{lon}' lat='{lat}'/></osm>"
        )
        with pytest.raises(ValueError, match=r"<node id='2'> lon/lat .* outside"):
            load_osm_xml(path)

    def test_gzipped_osm(self, tmp_path):
        gz_path = tmp_path / "sample.osm.gz"
        with open(SAMPLE_OSM, "rb") as src:
            gz_path.write_bytes(gzip.compress(src.read()))
        network = load_osm_xml(gz_path, frame=LOS_ANGELES)
        assert network.node_count == 8


# ----------------------------------------------------------------------
# downsampler + committed extract
# ----------------------------------------------------------------------


class TestDownsample:
    def test_connected_and_sized(self):
        full = load_osm_xml(SAMPLE_OSM, frame=LOS_ANGELES)
        extract = downsample(full, target_nodes=5, seed=3)
        assert extract.node_count == 5
        assert extract.is_connected()

    def test_byte_deterministic(self, tmp_path):
        full = load_osm_xml(SAMPLE_OSM, frame=LOS_ANGELES)
        for run in ("a", "b"):
            write_tiger(
                downsample(full, target_nodes=6, seed=9),
                tmp_path / f"{run}.cnode.gz",
                tmp_path / f"{run}.cedge.gz",
            )
        assert (tmp_path / "a.cnode.gz").read_bytes() == (
            tmp_path / "b.cnode.gz"
        ).read_bytes()
        assert (tmp_path / "a.cedge.gz").read_bytes() == (
            tmp_path / "b.cedge.gz"
        ).read_bytes()

    def test_seed_varies_start(self):
        full = load_osm_xml(SAMPLE_OSM, frame=LOS_ANGELES)
        picks = {
            tuple(
                sorted(
                    (
                        downsample(full, 3, seed=s).node_position(i).x,
                        downsample(full, 3, seed=s).node_position(i).y,
                    )
                    for i in range(3)
                )
            )
            for s in range(4)
        }
        assert len(picks) > 1

    def test_target_larger_than_graph(self):
        full = load_osm_xml(SAMPLE_OSM, frame=LOS_ANGELES)
        extract = downsample(full, target_nodes=10_000, seed=0)
        assert extract.node_count == full.node_count

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="target_nodes must be positive"):
            downsample(SpatialNetwork(), 0)


class TestBundledExtract:
    def test_loads_and_is_connected(self):
        network = load_bundled_extract()
        assert network.node_count == 5000
        assert network.edge_count == 8927
        assert network.is_connected()

    def test_hierarchy_matches_oracle_on_extract(self):
        """End-to-end: the committed extract + hierarchy vs the oracle."""
        network = load_bundled_extract()
        rng = random.Random(1234)
        edges = list(network.edges())
        pois = []
        for i in range(40):
            edge = rng.choice(edges)
            pois.append(
                (
                    network.location_at(edge, rng.uniform(0.0, edge.length)),
                    f"poi-{i}",
                )
            )
        hierarchy = HierarchicalIndex(network, leaf_size=64)
        reference = DijkstraIndex(network)
        hierarchy.register_pois(pois)
        reference.register_pois(pois)
        adjacency = {
            node: [
                (other, edge.length)
                for other, edge in network.neighbors(node)
            ]
            for node in network.node_ids()
        }
        flat = [
            (("edge", loc.edge.u, loc.edge.v, loc.offset, loc.edge.length), p)
            for loc, p in pois
        ]
        origin_edge = rng.choice(edges)
        origin = network.location_at(origin_edge, origin_edge.length / 2)
        expected = oracles.oracle_network_knn(
            adjacency,
            ("edge", origin.edge.u, origin.edge.v, origin.offset,
             origin.edge.length),
            flat,
            8,
        )
        got = [
            (n.payload, n.network_distance)
            for n in hierarchy.knn(origin, 8)
        ]
        ref = [
            (n.payload, n.network_distance)
            for n in reference.knn(origin, 8)
        ]
        assert got == expected
        assert got == ref
        # A sparse 40-POI set forces wide refinement, so the reduction
        # here is modest.
        assert (
            hierarchy.stats.settled_vertices
            < reference.stats.settled_vertices / 2
        )

        # The dense case: 600 on-edge POIs, 10 origins, k = 10.  Answers
        # stay bit-identical and the hierarchy settles >= 10x fewer
        # vertices than the full-component Dijkstra (34.2x at this seed).
        rng = random.Random("bench-network:0")

        def on_edge():
            edge = rng.choice(edges)
            return network.location_at(edge, rng.uniform(0.0, edge.length))

        pois = [(on_edge(), index) for index in range(600)]
        origins = [on_edge() for _ in range(10)]
        hierarchy.register_pois(pois)
        reference.register_pois(pois)
        hierarchy.stats.reset()
        reference.stats.reset()
        for origin in origins:
            got = [(n.payload, n.network_distance) for n in hierarchy.knn(origin, 10)]
            ref = [(n.payload, n.network_distance) for n in reference.knn(origin, 10)]
            assert got == ref
        assert (
            reference.stats.settled_vertices
            >= 10 * hierarchy.stats.settled_vertices
        )

    def test_spot_distance_matches_direct_dijkstra(self):
        network = load_bundled_extract()
        edges = list(network.edges())
        hierarchy = HierarchicalIndex(network, leaf_size=64)
        rng = random.Random(99)
        for _ in range(3):
            ea, eb = rng.sample(edges, 2)
            a = network.location_at(ea, ea.length * 0.5)
            b = network.location_at(eb, eb.length * 0.25)
            search = DijkstraSearch(network, origin_seeds(a))
            assert hierarchy.network_distance(a, b) == network_distance(search, a, b)

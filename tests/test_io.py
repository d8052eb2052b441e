"""Round-trip tests for the persistence package."""

import json

import pytest

from repro.experiments.runner import FigureResult
from repro.geometry.point import Point
from repro.io import (
    figure_from_dict,
    figure_to_csv_rows,
    figure_to_dict,
    load_figure,
    load_network,
    load_pois,
    network_from_dict,
    network_to_dict,
    pois_from_dict,
    pois_to_dict,
    save_figure,
    save_network,
    save_pois,
    write_figure_csv,
)
from repro.network.dijkstra import DijkstraSearch
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.graph import RoadClass, SpatialNetwork


def sample_network():
    return generate_road_network(
        RoadNetworkSpec(width=2.0, height=2.0, secondary_spacing=0.5, seed=3)
    )


class TestNetworkIo:
    def test_round_trip_structure(self):
        original = sample_network()
        restored = network_from_dict(network_to_dict(original))
        assert restored.node_count == original.node_count
        assert restored.edge_count == original.edge_count
        assert restored.total_length() == pytest.approx(original.total_length())

    def test_round_trip_road_classes(self):
        original = sample_network()
        restored = network_from_dict(network_to_dict(original))
        count_by_class = {}
        for edge in original.edges():
            count_by_class[edge.road_class] = count_by_class.get(edge.road_class, 0) + 1
        restored_counts = {}
        for edge in restored.edges():
            restored_counts[edge.road_class] = restored_counts.get(edge.road_class, 0) + 1
        assert count_by_class == restored_counts

    def test_round_trip_preserves_distances(self):
        original = sample_network()
        restored = network_from_dict(network_to_dict(original))
        source_o = min(original.node_ids())
        source_r = min(restored.node_ids())
        search_o = DijkstraSearch(original, [(source_o, 0.0)])
        search_r = DijkstraSearch(restored, [(source_r, 0.0)])
        search_o.expand()
        search_r.expand()
        d_o = sorted(search_o.settled.values())
        d_r = sorted(search_r.settled.values())
        assert d_o == pytest.approx(d_r)

    def test_curved_edge_length_preserved(self):
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(1, 0))
        net.add_edge(a, b, RoadClass.RURAL_ROAD, length=2.5)
        restored = network_from_dict(network_to_dict(net))
        edge = next(restored.edges())
        assert edge.length == 2.5
        assert edge.road_class is RoadClass.RURAL_ROAD

    def test_file_round_trip(self, tmp_path):
        original = sample_network()
        path = tmp_path / "network.json"
        save_network(original, path)
        restored = load_network(path)
        assert restored.edge_count == original.edge_count

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            network_from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self):
        data = network_to_dict(sample_network())
        data["version"] = 999
        with pytest.raises(ValueError):
            network_from_dict(data)


class TestPoiIo:
    def test_round_trip(self):
        pois = [(Point(1.5, 2.5), "a"), (Point(3.0, 4.0), {"name": "b"})]
        restored = pois_from_dict(pois_to_dict(pois))
        assert restored == pois

    def test_file_round_trip(self, tmp_path):
        pois = [(Point(0, 0), "x")]
        path = tmp_path / "pois.json"
        save_pois(pois, path)
        assert load_pois(path) == pois

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            pois_from_dict({"format": "nope"})


class TestFigureIo:
    def sample_figure(self):
        result = FigureResult("fig9", "title", "Tx (m)", [50.0, 100.0], notes="n")
        result.series["LA"] = {"server": [60.0, 40.0], "single_peer": [40.0, 60.0]}
        result.series["RV"] = {"server": [80.0, 70.0], "single_peer": [20.0, 30.0]}
        return result

    def test_round_trip(self):
        original = self.sample_figure()
        restored = figure_from_dict(figure_to_dict(original))
        assert restored.figure_id == original.figure_id
        assert restored.xs == original.xs
        assert restored.series == original.series
        assert restored.notes == original.notes

    def test_json_serializable(self):
        text = json.dumps(figure_to_dict(self.sample_figure()))
        assert "fig9" in text

    def test_file_round_trip(self, tmp_path):
        original = self.sample_figure()
        path = tmp_path / "fig.json"
        save_figure(original, path)
        restored = load_figure(path)
        assert restored.series == original.series

    def test_csv_rows(self):
        rows = figure_to_csv_rows(self.sample_figure())
        assert len(rows) == 8  # 2 regions x 2 series x 2 xs
        assert ("fig9", "LA", "server", 50.0, 60.0) in rows

    def test_csv_file(self, tmp_path):
        path = tmp_path / "fig.csv"
        write_figure_csv(self.sample_figure(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "figure,region,series,x,value"
        assert len(lines) == 9

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            figure_from_dict({"format": "nope"})

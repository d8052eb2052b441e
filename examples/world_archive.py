"""Archiving and replaying a simulation world.

Reproducibility workflow: generate a world (road network + POIs), write
it to disk as JSON, reload it elsewhere, and verify the reloaded world
answers queries identically.  Also exports an experiment figure to JSON
and CSV for external plotting.

Run with::

    python examples/world_archive.py [--out-dir /tmp/repro-archive]
"""

import argparse
import pathlib

import numpy as np

from repro.core import SpatialDatabaseServer
from repro.experiments import figures
from repro.experiments.runner import Quality, format_figure
from repro.geometry.point import Point
from repro.io import (
    load_network,
    load_pois,
    save_figure,
    save_network,
    save_pois,
    write_figure_csv,
)
from repro.network.dijkstra import DijkstraSearch, network_distance, origin_seeds
from repro.network.generator import RoadNetworkSpec, generate_road_network


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="/tmp/repro-archive")
    args = parser.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # --- generate and archive a world --------------------------------
    network = generate_road_network(
        RoadNetworkSpec(width=3.0, height=3.0, secondary_spacing=0.4, seed=21)
    )
    rng = np.random.default_rng(21)
    pois = [
        (network.snap(Point(float(x), float(y))).point, f"poi-{i}")
        for i, (x, y) in enumerate(rng.uniform(0, 3, size=(25, 2)))
    ]
    save_network(network, out / "network.json")
    save_pois(pois, out / "pois.json")
    print(f"archived {network} and {len(pois)} POIs to {out}")

    # --- reload and verify equivalence --------------------------------
    network2 = load_network(out / "network.json")
    pois2 = load_pois(out / "pois.json")
    assert pois2 == pois

    q = Point(1.5, 1.5)
    server_a = SpatialDatabaseServer.from_points(pois)
    server_b = SpatialDatabaseServer.from_points(pois2)
    knn_a = [(r.payload, round(r.distance, 12)) for r in server_a.knn_query(q, 5)]
    knn_b = [(r.payload, round(r.distance, 12)) for r in server_b.knn_query(q, 5)]
    # Exact compare is safe: both sides were rounded to 12 digits above.
    assert knn_a == knn_b  # repro: noqa(RPR001)
    print("reloaded world answers kNN queries identically")

    loc_a = network.snap(q)
    loc_b = network2.snap(q)
    target_a = network.snap(pois[0][0])
    target_b = network2.snap(pois2[0][0])
    search_a = DijkstraSearch(network, origin_seeds(loc_a))
    search_b = DijkstraSearch(network2, origin_seeds(loc_b))
    nd_a = network_distance(search_a, loc_a, target_a)
    nd_b = network_distance(search_b, loc_b, target_b)
    assert abs(nd_a - nd_b) < 1e-9
    print(f"network distances match after reload ({nd_a:.4f} mi)")

    # --- archive an experiment figure ---------------------------------
    result = figures.fig17(Quality.FAST, seed=21)
    save_figure(result, out / "fig17.json")
    write_figure_csv(result, out / "fig17.csv")
    print(f"\n{format_figure(result)}")
    print(f"\nfigure archived as {out / 'fig17.json'} and {out / 'fig17.csv'}")


if __name__ == "__main__":
    main()

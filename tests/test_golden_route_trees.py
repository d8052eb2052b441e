"""Golden regression: every route tree the planner grows is pinned by digest.

:meth:`RoutePlanner._grow` returns one ``int32`` predecessor array per
start node (-1 for the source and for what it cannot reach).  A rewrite
of the tree loop that claims "the same trees" has to reproduce every
entry, tie-breaks included, so this suite keeps a SHA-256 of each
source's array, little-endian, for

- the road networks of the first two ``sim_cruise`` builds
  (``los_angeles_30x30().scaled_area(0.2)``, seeds 11 000 and 11 001),
  every source;
- the jitter-free 6x6 grid, where equal-length routes abound, every
  source;
- a small network of two components and an isolated node, with curved
  (stretched) edges, every source;
- the bundled ~5 000-node extract, every 250th source.

The snapshot in ``tests/golden/route_trees.json`` was recorded from the
tree that ran ``DijkstraSearch`` to exhaustion and scattered its
predecessor dict into the array.  Regenerate (only when a network's
*inputs* change, never to paper over a drift) with::

    PYTHONPATH=src python tests/test_golden_route_trees.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.geometry.point import Point
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.graph import SpatialNetwork
from repro.network.loaders import load_bundled_extract
from repro.sim.config import SimulationConfig, los_angeles_30x30
from repro.sim.mobility import RoutePlanner

SNAPSHOT_PATH = Path(__file__).parent / "golden" / "route_trees.json"


def simulation_network(seed: int) -> SpatialNetwork:
    """The road network ``Simulation`` builds for a ``sim_cruise`` block."""
    config = SimulationConfig(los_angeles_30x30().scaled_area(0.2), seed=seed)
    area = config.parameters.area_miles
    return generate_road_network(RoadNetworkSpec(width=area, height=area, seed=seed))


def two_components() -> SpatialNetwork:
    """A stretched ring with a chord, an isolated node, and a triangle."""
    network = SpatialNetwork()
    ring = [
        network.add_node(Point(x, y))
        for x, y in ((0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1))
    ]
    network.add_node(Point(5, 5))
    triangle = [network.add_node(Point(x, y)) for x, y in ((8, 0), (9, 0), (8, 1))]
    for u, v in zip(ring, ring[1:] + ring[:1]):
        network.add_edge(u, v, length=1.25)
    network.add_edge(ring[1], ring[4])
    for u, v in zip(triangle, triangle[1:] + triangle[:1]):
        network.add_edge(u, v, length=2.0)
    return network


NETWORKS: Dict[str, Callable[[], SpatialNetwork]] = {
    "la_30x30_x0.2_seed11000": lambda: simulation_network(11_000),
    "la_30x30_x0.2_seed11001": lambda: simulation_network(11_001),
    "grid_6x6_no_jitter": lambda: generate_road_network(
        RoadNetworkSpec(width=6, height=6, jitter=0.0, seed=0)
    ),
    "two_components_and_an_island": two_components,
    "bundled_extract_every_250th": load_bundled_extract,
}

#: Every how many sources (in ascending id order) a network's trees are pinned.
STRIDE = {"bundled_extract_every_250th": 250}


def tree_digests(name: str) -> Dict[str, object]:
    """SHA-256 of each pinned source's tree, in ascending source order."""
    network = NETWORKS[name]()
    planner = RoutePlanner(network)
    sources = sorted(network.node_ids())[:: STRIDE.get(name, 1)]
    digests: List[str] = []
    for source in sources:
        tree = planner._grow(source)
        digests.append(hashlib.sha256(tree.astype("<i4").tobytes()).hexdigest())
    return {"nodes": network.node_count, "sources": sources, "sha256": digests}


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_route_trees_match_pinned_digests(name):
    pinned = json.loads(SNAPSHOT_PATH.read_text())[name]
    ours = tree_digests(name)
    assert ours["nodes"] == pinned["nodes"]
    assert ours["sources"] == pinned["sources"]
    mismatched = [
        source
        for source, got, want in zip(ours["sources"], ours["sha256"], pinned["sha256"])
        if got != want
    ]
    assert not mismatched, f"trees differ from sources {mismatched[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden_route_trees.py --regen")
    SNAPSHOT_PATH.write_text(
        json.dumps({name: tree_digests(name) for name in sorted(NETWORKS)}, indent=1)
        + "\n"
    )
    print(f"wrote {SNAPSHOT_PATH}")

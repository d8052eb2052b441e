"""Spatial (road) network substrate.

Section 3.4 of the paper extends SENN to network distances: mobile hosts
carry a local *modeling graph* of the road network, compute shortest-path
distances with Dijkstra's algorithm, and run an IER-style incremental
search.  This package provides all of that from scratch:

- :mod:`repro.network.graph` -- the modeling graph (junctions, segment
  endpoints and auxiliary points), road classes with speed limits, and
  point snapping onto edges;
- :mod:`repro.network.dijkstra` -- the one Dijkstra kernel
  (:class:`DijkstraSearch`: multi-source, resumable, optionally confined
  to a vertex set, predecessors kept) and its thin wrappers: one
  concrete path, one source's whole path tree, exact point-to-point
  network distance for on-edge locations;
- :mod:`repro.network.ier` -- Incremental Euclidean Restriction (IER) and
  Incremental Network Expansion (INE, the kernel with a k-th-candidate
  bound) for network kNN queries;
- :mod:`repro.network.generator` -- a seeded synthetic TIGER-like road
  network generator (the paper used TIGER/LINE vectors; see DESIGN.md for
  the substitution rationale);
- :mod:`repro.network.index` -- the :class:`NetworkIndex` protocol with
  the Dijkstra reference implementation and the precomputed G-tree-style
  partition hierarchy, both reading their distances off the kernel (see
  ``docs/network.md``);
- :mod:`repro.network.loaders` -- real road-graph loaders (TIGER edge
  lists, OSM XML), region coordinate frames, and the deterministic
  downsampler behind the committed CI extract.
"""

from repro.network.dijkstra import (
    DijkstraSearch,
    network_distance,
    shortest_path,
    shortest_path_tree,
)
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.graph import Edge, NetworkLocation, RoadClass, SpatialNetwork
from repro.network.ier import (
    NetworkNeighbor,
    incremental_euclidean_restriction,
    incremental_network_expansion,
)
from repro.network.index import (
    DijkstraIndex,
    HierarchicalIndex,
    IndexStats,
    NetworkIndex,
)
from repro.network.loaders import (
    LOS_ANGELES,
    RIVERSIDE,
    RegionFrame,
    downsample,
    load_bundled_extract,
    load_osm_xml,
    load_tiger,
    write_tiger,
)

__all__ = [
    "LOS_ANGELES",
    "RIVERSIDE",
    "DijkstraIndex",
    "DijkstraSearch",
    "Edge",
    "HierarchicalIndex",
    "IndexStats",
    "NetworkIndex",
    "NetworkLocation",
    "NetworkNeighbor",
    "RegionFrame",
    "RoadClass",
    "RoadNetworkSpec",
    "SpatialNetwork",
    "downsample",
    "generate_road_network",
    "incremental_euclidean_restriction",
    "incremental_network_expansion",
    "load_bundled_extract",
    "load_osm_xml",
    "load_tiger",
    "network_distance",
    "shortest_path",
    "shortest_path_tree",
    "write_tiger",
]

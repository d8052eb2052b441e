"""The road-network modeling graph.

The paper assumes "a digitization process that generates a modeling graph
from an input spatial network" whose nodes are junctions, segment
endpoints and auxiliary points (Section 3.4).  :class:`SpatialNetwork` is
that graph: an undirected graph with geometric nodes and weighted edges
carrying a road class and speed limit (Section 4.1.2 assigns per-class
maximum driving speeds).

Positions *between* nodes are described by :class:`NetworkLocation`
(an edge plus an offset), which is what mobility and network-distance
computations operate on.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.geometry.point import Point

__all__ = ["RoadClass", "Edge", "NetworkLocation", "SpatialNetwork"]


class RoadClass(enum.Enum):
    """TIGER-style road categories with their maximum driving speeds (mph).

    The paper: "The segments associated with a different road classes are
    associated with different maximum driving speeds."
    """

    PRIMARY_HIGHWAY = 65.0
    SECONDARY_ROAD = 45.0
    RURAL_ROAD = 30.0

    @property
    def speed_limit_mph(self) -> float:
        """Maximum driving speed of this road class, in mph (Section 4.1.2)."""
        return self.value


@dataclass(frozen=True, slots=True)
class Edge:
    """An undirected road segment between two graph nodes."""

    u: int
    v: int
    length: float
    road_class: RoadClass = RoadClass.SECONDARY_ROAD

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ValueError("edge length must be positive")
        if self.u == self.v:
            raise ValueError("self-loop edges are not allowed")

    @property
    def speed_limit_mph(self) -> float:
        """Speed limit inherited from this segment's road class."""
        return self.road_class.speed_limit_mph

    def other_end(self, node: int) -> int:
        """Return the opposite endpoint of ``node`` on this edge."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of this edge")

    def key(self) -> Tuple[int, int]:
        """Canonical (sorted) endpoint pair."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True, slots=True)
class NetworkLocation:
    """A position on the network: ``offset`` along ``edge`` from its ``u`` end.

    ``point`` is the interpolated plane position, cached because mobility
    and Euclidean pre-filters need it constantly.
    """

    edge: Edge
    offset: float
    point: Point

    def __post_init__(self) -> None:
        if not -1e-9 <= self.offset <= self.edge.length + 1e-9:
            raise ValueError(
                f"offset {self.offset} outside edge of length {self.edge.length}"
            )

    @property
    def offset_from_v(self) -> float:
        """Distance along the edge measured from the ``v`` end instead."""
        return self.edge.length - self.offset


class SpatialNetwork:
    """An undirected spatial graph with geometric nodes.

    Node ids are integers assigned by :meth:`add_node`.  The graph is
    deliberately simple -- adjacency dictionaries -- because every
    algorithm in the paper (Dijkstra, INE, mobility) only needs neighbor
    iteration and O(1) edge lookup.
    """

    def __init__(self) -> None:
        self._positions: Dict[int, Point] = {}
        self._adjacency: Dict[int, Dict[int, Edge]] = {}
        self._next_node_id = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, position: Point) -> int:
        """Add a node and return its id."""
        node_id = self._next_node_id
        self._next_node_id += 1
        self._positions[node_id] = position
        self._adjacency[node_id] = {}
        return node_id

    def add_edge(
        self,
        u: int,
        v: int,
        road_class: RoadClass = RoadClass.SECONDARY_ROAD,
        length: Optional[float] = None,
    ) -> Edge:
        """Connect two existing nodes; length defaults to the Euclidean one.

        An explicit ``length`` above the Euclidean distance models curved
        segments; a length below it is rejected because it would violate
        the Euclidean lower-bound property that IER depends on.
        """
        if u not in self._positions or v not in self._positions:
            raise KeyError("both endpoints must exist before adding an edge")
        # Euclidean by design: an edge's chord length is the geometric
        # lower bound its stored network length must respect.
        euclidean = self._positions[u].distance_to(self._positions[v])  # repro: noqa(RPR003)
        if length is None:
            length = euclidean
        elif length < euclidean - 1e-9:
            raise ValueError(
                "edge length below the Euclidean distance breaks the "
                "Euclidean lower-bound property"
            )
        # Exactly coincident endpoints have no direction; any non-zero
        # chord is a valid (possibly tiny) edge.
        if euclidean == 0.0:  # repro: noqa(RPR001)
            raise ValueError("cannot connect two coincident nodes")
        edge = Edge(u, v, length, road_class)
        self._adjacency[u][v] = edge
        self._adjacency[v][u] = edge
        return edge

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def node_position(self, node: int) -> Point:
        """Plane position of ``node`` (raises ``KeyError`` if unknown)."""
        return self._positions[node]

    def node_ids(self) -> Iterator[int]:
        """Iterate node ids in insertion (ascending) order."""
        return iter(self._positions)

    @property
    def node_count(self) -> int:
        """Number of nodes in the graph."""
        return len(self._positions)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges (each counted once)."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def neighbors(self, node: int) -> Iterator[Tuple[int, Edge]]:
        """Yield ``(neighbor_id, edge)`` pairs."""
        return iter(self._adjacency[node].items())

    def degree(self, node: int) -> int:
        """Number of edges incident to ``node``."""
        return len(self._adjacency[node])

    def edge_between(self, u: int, v: int) -> Optional[Edge]:
        """The edge connecting ``u`` and ``v``, or ``None`` if absent."""
        return self._adjacency.get(u, {}).get(v)

    def edges(self) -> Iterator[Edge]:
        """Yield every edge exactly once."""
        for u, neighbors in self._adjacency.items():
            for v, edge in neighbors.items():
                if u < v:
                    yield edge

    def total_length(self) -> float:
        """Sum of all edge lengths (the total road mileage)."""
        return sum(edge.length for edge in self.edges())

    def component_labels(self) -> Dict[int, int]:
        """Connected-component label per node.

        Components are numbered from 0 in ascending order of their
        smallest node id; the mapping iterates in discovery order, one
        component after another.
        """
        labels: Dict[int, int] = {}
        label = -1
        for start in self._positions:
            if start in labels:
                continue
            label += 1
            labels[start] = label
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbor in self._adjacency[node]:
                    if neighbor not in labels:
                        labels[neighbor] = label
                        stack.append(neighbor)
        return labels

    def is_connected(self) -> bool:
        """True when every node is reachable from every other node."""
        return len(set(self.component_labels().values())) <= 1

    def largest_component_nodes(self) -> List[int]:
        """Node ids of the largest connected component (the
        lowest-numbered one among equals)."""
        labels = self.component_labels()
        sizes = Counter(labels.values())
        largest = max(sizes, key=sizes.__getitem__, default=None)
        return [node for node, label in labels.items() if label == largest]

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def location_at(self, edge: Edge, offset: float) -> NetworkLocation:
        """Build the :class:`NetworkLocation` at ``offset`` along ``edge``."""
        offset = min(max(offset, 0.0), edge.length)
        start = self._positions[edge.u]
        end = self._positions[edge.v]
        fraction = offset / edge.length
        point = Point(
            start.x + (end.x - start.x) * fraction,
            start.y + (end.y - start.y) * fraction,
        )
        return NetworkLocation(edge, offset, point)

    def location_at_node(self, node: int) -> NetworkLocation:
        """A location sitting exactly on ``node`` (via an incident edge)."""
        neighbors = self._adjacency[node]
        if not neighbors:
            raise ValueError(f"node {node} has no incident edges")
        edge = next(iter(neighbors.values()))
        offset = 0.0 if edge.u == node else edge.length
        return NetworkLocation(edge, offset, self._positions[node])

    def snap(self, point: Point) -> NetworkLocation:
        """Project ``point`` onto the nearest edge of the network.

        Linear scan over edges; snapping happens once per host / POI at
        setup time, so simplicity beats an index here.
        """
        best: Optional[NetworkLocation] = None
        best_dist = math.inf
        for edge in self.edges():
            start = self._positions[edge.u]
            end = self._positions[edge.v]
            # Euclidean by design: snapping projects onto the edge chord.
            length_sq = start.squared_distance_to(end)  # repro: noqa(RPR003)
            t = (
                (point.x - start.x) * (end.x - start.x)
                + (point.y - start.y) * (end.y - start.y)
            ) / length_sq
            t = min(1.0, max(0.0, t))
            projected = Point(
                start.x + t * (end.x - start.x), start.y + t * (end.y - start.y)
            )
            # Euclidean by design: off-network displacement to the chord.
            dist = point.distance_to(projected)  # repro: noqa(RPR003)
            if dist < best_dist:
                best_dist = dist
                # The offset is along the edge's *stored* length, which can
                # exceed the chord length for curved segments.
                best = NetworkLocation(edge, t * edge.length, projected)
        if best is None:
            raise ValueError("cannot snap onto an empty network")
        return best

    def nearest_node(self, point: Point) -> int:
        """Id of the node geometrically closest to ``point``."""
        if not self._positions:
            raise ValueError("network has no nodes")
        return min(
            self._positions,
            # Euclidean by design: geometric nearest node, not reachability.
            key=lambda node: self._positions[node].distance_to(point),  # repro: noqa(RPR003)
        )

    def __repr__(self) -> str:
        return (
            f"SpatialNetwork({self.node_count} nodes, {self.edge_count} edges, "
            f"total length {self.total_length():.3g})"
        )

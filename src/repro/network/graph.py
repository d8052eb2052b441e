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

import collections
import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.geometry.point import Point
from repro.obs import OBS, Counter, Instrument

__all__ = ["RoadClass", "Edge", "NetworkLocation", "SpatialNetwork"]

_SNAP_CALLS = Instrument(Counter, "network.snap.calls")
_SNAP_EDGES_SCANNED = Instrument(Counter, "network.snap.edges_scanned")


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
        if not 0.0 < self.length < math.inf:
            raise ValueError(
                f"edge length must be finite and positive, got {self.length}"
            )
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


#: How far past the best distance the snap search still looks, as a
#: fraction of the coordinates' magnitude: a million times the rounding
#: of the distances and cell lines it compares.
_SNAP_SLACK = 1e-9


class _EdgeGrid:
    """Uniform grid over edge bounding boxes: the search behind ``snap``.

    Square cells, about as many as there are edges, cover the extent of
    the edges' endpoints; each cell lists, by rank in ``edges()`` order,
    every edge whose bounding box overlaps it.
    """

    __slots__ = (
        "_edges", "_positions", "_min_x", "_min_y", "_max_x", "_max_y",
        "_cell", "_columns", "_rows", "_scale", "_cells",
    )

    def __init__(self, edges: List[Edge], positions: Mapping[int, Point]) -> None:
        self._edges = edges
        self._positions = positions
        ends = [positions[node] for edge in edges for node in (edge.u, edge.v)]
        self._min_x = min(end.x for end in ends)
        self._max_x = max(end.x for end in ends)
        self._min_y = min(end.y for end in ends)
        self._max_y = max(end.y for end in ends)
        width = self._max_x - self._min_x
        height = self._max_y - self._min_y
        # Edges join distinct points, so the longer side is positive.
        self._cell = max(width, height) / math.ceil(math.sqrt(len(edges)))
        self._columns = int(width / self._cell) + 1
        self._rows = int(height / self._cell) + 1
        self._scale = max(
            abs(self._min_x), abs(self._max_x), abs(self._min_y), abs(self._max_y)
        )
        self._cells: List[Optional[List[int]]] = [None] * (self._columns * self._rows)
        for rank, edge in enumerate(edges):
            start, stop = positions[edge.u], positions[edge.v]
            first_column, first_row = self._cell_of(
                min(start.x, stop.x), min(start.y, stop.y)
            )
            last_column, last_row = self._cell_of(
                max(start.x, stop.x), max(start.y, stop.y)
            )
            for row in range(first_row, last_row + 1):
                for column in range(first_column, last_column + 1):
                    key = row * self._columns + column
                    bucket = self._cells[key]
                    if bucket is None:
                        bucket = self._cells[key] = []
                    bucket.append(rank)

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """Column and row of the cell holding ``(x, y)``, clamped to the grid."""
        column = min(max((x - self._min_x) / self._cell, 0.0), self._columns - 1)
        row = min(max((y - self._min_y) / self._cell, 0.0), self._rows - 1)
        return int(column), int(row)

    def nearest(self, point: Point) -> Tuple[NetworkLocation, int]:
        """The closest on-edge location to ``point`` and the edges scanned.

        Starts at the point's cell (the nearest cell, for a point outside
        the grid) and grows that block of cells by a ring per round: one
        row or column on each side.  A side stops growing once the strip
        of cells beyond it is farther away than the best edge found so
        far, and a cell in a ring is skipped when its own rectangle is.
        Both tests let ties and :data:`_SNAP_SLACK` through, so rounding
        in either distance can hide neither the winner nor an edge tied
        with it.
        """
        px, py = point.x, point.y
        edges, positions = self._edges, self._positions
        min_x, min_y, cell = self._min_x, self._min_y, self._cell
        columns, rows, cells = self._columns, self._rows, self._cells
        # How far outside the extent the point lies along each axis.  The
        # strips span the extent's full width or height, so this is their
        # gap to the point across the other axis.
        off_x = max(min_x - px, 0.0, px - self._max_x)
        off_y = max(min_y - py, 0.0, py - self._max_y)
        slack = _SNAP_SLACK * (self._scale + abs(px) + abs(py))
        low_column, low_row = high_column, high_row = self._cell_of(px, py)
        best: Optional[Tuple[Edge, float, float, float]] = None
        best_dist = math.inf
        best_rank = -1
        scanned = 0
        ring = [(low_column, low_row)]
        while ring:
            for column, row in ring:
                bucket = cells[row * columns + column]
                if bucket is None:
                    continue
                left = min_x + column * cell
                below = min_y + row * cell
                if best_dist + slack < math.hypot(
                    max(left - px, 0.0, px - (left + cell)),
                    max(below - py, 0.0, py - (below + cell)),
                ):
                    continue
                scanned += len(bucket)
                for rank in bucket:
                    edge = edges[rank]
                    start = positions[edge.u]
                    stop = positions[edge.v]
                    sx, sy = start.x, start.y
                    dx, dy = stop.x - sx, stop.y - sy
                    # Euclidean by design: snapping projects onto the edge chord.
                    length_sq = start.squared_distance_to(stop)
                    t = ((px - sx) * dx + (py - sy) * dy) / length_sq
                    t = min(1.0, max(0.0, t))
                    x = sx + t * dx
                    y = sy + t * dy
                    # Euclidean by design: off-network displacement to the
                    # chord (``point.distance_to`` without building a Point).
                    dist = math.hypot(px - x, py - y)
                    # Exact tie by design: a point on a node is equally far
                    # from every incident edge, and the order cells are
                    # visited in must not pick another than a scan would.
                    if dist < best_dist or (
                        dist == best_dist and rank < best_rank  # repro: noqa(RPR001)
                    ):
                        best = (edge, t, x, y)
                        best_dist = dist
                        best_rank = rank
            reach = best_dist + slack
            ring = []
            if low_column > 0 and (
                math.hypot(px - (min_x + low_column * cell), off_y) <= reach
            ):
                low_column -= 1
                ring += [(low_column, row) for row in range(low_row, high_row + 1)]
            if high_column < columns - 1 and (
                math.hypot(min_x + (high_column + 1) * cell - px, off_y) <= reach
            ):
                high_column += 1
                ring += [(high_column, row) for row in range(low_row, high_row + 1)]
            if low_row > 0 and (
                math.hypot(py - (min_y + low_row * cell), off_x) <= reach
            ):
                low_row -= 1
                ring += [
                    (column, low_row) for column in range(low_column, high_column + 1)
                ]
            if high_row < rows - 1 and (
                math.hypot(min_y + (high_row + 1) * cell - py, off_x) <= reach
            ):
                high_row += 1
                ring += [
                    (column, high_row) for column in range(low_column, high_column + 1)
                ]
        if best is None:
            raise ValueError(f"cannot snap the non-finite point {point!r}")
        edge, t, x, y = best
        # The offset is along the edge's *stored* length, which can exceed
        # the chord length for curved segments.
        return NetworkLocation(edge, t * edge.length, Point(x, y)), scanned


class SpatialNetwork:
    """An undirected spatial graph with geometric nodes.

    Node ids are integers assigned by :meth:`add_node`.  The graph is
    deliberately simple -- adjacency dictionaries, for neighbor
    iteration and O(1) edge lookup.  Dijkstra, which walks every node's
    neighbors, reads :meth:`adjacency_rows` instead: the same pairs as
    plain tuples, built once.
    """

    def __init__(self) -> None:
        self._positions: Dict[int, Point] = {}
        self._adjacency: Dict[int, Dict[int, Edge]] = {}
        self._next_node_id = 0
        # Built by the first ``snap``, dropped when an edge is added.
        self._edge_grid: Optional[_EdgeGrid] = None
        # Built by the first ``adjacency_rows``, dropped when a node or
        # an edge is added.
        self._rows: Optional[List[Tuple[Tuple[int, float], ...]]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, position: Point) -> int:
        """Add a node at finite coordinates and return its id."""
        if not (math.isfinite(position.x) and math.isfinite(position.y)):
            raise ValueError(
                f"node coordinates must be finite, got {position!r}"
            )
        node_id = self._next_node_id
        self._next_node_id += 1
        self._positions[node_id] = position
        self._adjacency[node_id] = {}
        self._rows = None
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
        euclidean = self._positions[u].distance_to(self._positions[v])
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
        self._edge_grid = None
        self._rows = None
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

    def adjacency_rows(self) -> List[Tuple[Tuple[int, float], ...]]:
        """Every node's ``(neighbor_id, length)`` pairs, indexed by node id.

        Node ids run from 0 without gaps, so row ``i`` belongs to node
        ``i``; a row lists what :meth:`neighbors` yields, in its order.
        Built on the first call and rebuilt after the next ``add_node``
        or ``add_edge``; read it, do not write it.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = [
                tuple((neighbor, edge.length) for neighbor, edge in neighbors.items())
                for neighbors in self._adjacency.values()
            ]
        return rows

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
        sizes = collections.Counter(labels.values())
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

        Algorithm 2 places the query host and every Euclidean candidate
        on the modeling graph before measuring them (Section 3.4), so
        this runs several times per SNNN query and must not look at
        every edge.  The search is a uniform grid over the edges'
        bounding boxes (:class:`_EdgeGrid`), built on the first call and
        rebuilt after the next ``add_edge``; it visits the cells around
        the point outward until no unvisited cell can hold an edge as
        close as the best one found.

        Among edges at exactly the same distance -- every edge incident
        to a node the point sits on -- the earliest in :meth:`edges`
        order wins, whatever order the cells were visited in.
        """
        grid = self._edge_grid
        if grid is None:
            edges = list(self.edges())
            if not edges:
                raise ValueError("cannot snap onto an empty network")
            grid = self._edge_grid = _EdgeGrid(edges, self._positions)
        location, scanned = grid.nearest(point)
        if OBS.enabled:
            _SNAP_CALLS().inc()
            _SNAP_EDGES_SCANNED().inc(scanned)
        return location

    def nearest_node(self, point: Point) -> int:
        """Id of the node geometrically closest to ``point``."""
        if not self._positions:
            raise ValueError("network has no nodes")
        return min(
            self._positions,
            # Euclidean by design: geometric nearest node, not reachability.
            key=lambda node: self._positions[node].distance_to(point),
        )

    def __repr__(self) -> str:
        return (
            f"SpatialNetwork({self.node_count} nodes, {self.edge_count} edges, "
            f"total length {self.total_length():.3g})"
        )

"""Network kNN indexes behind the :class:`NetworkIndex` protocol.

Two engines for exact network distances and ranked network kNN over a
registered POI set, both reading every reported distance off the one
Dijkstra kernel (:class:`repro.network.dijkstra.DijkstraSearch`).  SNNN
itself does not use them -- ``snnn_query`` calls
:func:`repro.network.dijkstra.network_distance` per candidate -- their
callers are the ``network-index`` difftest check, the loader tests and
the benchmark's traced pass (``docs/network.md`` records the verdict on
the hierarchy).

- :class:`NetworkIndex` -- the protocol every implementation satisfies:
  exact point-to-point distances, a registered POI set, and top-k by
  ``(network_distance, poi_tie_key)``;
- :class:`DijkstraIndex` -- the reference implementation, a thin stats
  wrapper over :mod:`repro.network.dijkstra`; it settles the origin's
  whole component per kNN query and is what the difftest oracle mirrors;
- :class:`HierarchicalIndex` -- a G-tree-style partition hierarchy
  (recursive METIS-free coordinate bisection, per-partition border sets,
  precomputed border-to-border distance matrices) with assemble-on-demand
  upper bounds and best-first partition expansion, in the style of "kNN
  on Road Networks: A Journey in Experimentation" (arXiv:1601.01549).

Exactness contract
------------------
The hierarchy is *bit-for-tie-key-identical* to the Dijkstra reference by
construction, not by tolerance: partition matrices and Euclidean bounds
are used only to decide *which* POIs need refinement, while every
reported distance is read off a
:class:`repro.network.dijkstra.DijkstraSearch` seeded at the origin --
the same kernel, seeds and endpoint fold :class:`DijkstraIndex` uses,
only resumed candidate by candidate instead of run to exhaustion
(settled values are independent of where the search stops, so resuming
cannot change them).  Pruning bounds are sound because the graph enforces
the Euclidean lower-bound property (``SpatialNetwork.add_edge`` rejects
lengths below the chord), and a small safety margin absorbs float
rounding in the assembled upper bounds.  The margin can only cause
extra refinement, never a missed answer.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.geometry.vecmath import FloatArray
from repro.index.knn import TieKey, poi_tie_key
from repro.network.dijkstra import DijkstraSearch, distance_from, origin_seeds
from repro.network.graph import NetworkLocation, SpatialNetwork
from repro.network.ier import NetworkNeighbor
from repro.obs import OBS, Counter, Instrument

__all__ = [
    "DijkstraIndex",
    "HierarchicalIndex",
    "IndexStats",
    "NetworkIndex",
]

_KNN_QUERIES = Instrument(Counter, "network.knn_queries", "impl")
_SETTLED_VERTICES = Instrument(Counter, "network.settled_vertices", "impl")
_POIS_REFINED = Instrument(Counter, "network.pois_refined")

#: Relative / absolute slack added to pruning comparisons.  Assembled
#: upper bounds and Euclidean lower bounds are float arithmetic over
#: exact invariants; the margin absorbs their rounding so pruning stays
#: sound.  It only ever admits extra candidates for exact refinement.
_MARGIN_REL = 1e-9
_MARGIN_ABS = 1e-7

#: How many per-origin Dijkstra searches :class:`HierarchicalIndex` keeps
#: alive.  SNNN evaluates many candidates from one origin before moving
#: on, so a small LRU captures nearly all reuse.
_SEARCH_CACHE = 16


@dataclass
class IndexStats:
    """Work counters a :class:`NetworkIndex` accumulates across queries.

    ``settled_vertices`` is the paper-facing cost metric (Section 4 costs
    SNNN by its network expansion); the bench derives the hierarchy-vs-
    Dijkstra speedup from it.
    """

    distance_queries: int = 0
    knn_queries: int = 0
    settled_vertices: int = 0
    partitions_opened: int = 0
    pois_refined: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        self.distance_queries = 0
        self.knn_queries = 0
        self.settled_vertices = 0
        self.partitions_opened = 0
        self.pois_refined = 0


@runtime_checkable
class NetworkIndex(Protocol):
    """An exact network-distance and network-kNN engine over one graph.

    Implementations guarantee (the Dijkstra oracle checks all three):

    - :meth:`network_distance` returns the *exact* shortest network
      distance (``inf`` when disconnected), bit-identical to
      :func:`repro.network.dijkstra.network_distance`;
    - :meth:`knn` ranks the registered POIs by
      ``(network_distance, poi_tie_key(payload))`` exactly as
      ``repro.testing.oracles.oracle_network_knn`` does, including
      unreachable POIs at ``inf`` when fewer than ``k`` are reachable;
    - :attr:`stats` bills every settled vertex, so cost comparisons
      between implementations are honest.
    """

    @property
    def network(self) -> SpatialNetwork:
        """The graph this index answers over."""
        ...

    @property
    def stats(self) -> IndexStats:
        """Accumulated work counters (reset with ``stats.reset()``)."""
        ...

    def network_distance(
        self, origin: NetworkLocation, destination: NetworkLocation
    ) -> float:
        """Exact shortest network distance between two on-edge locations."""
        ...

    def register_pois(
        self, pois: Sequence[Tuple[NetworkLocation, Any]]
    ) -> None:
        """Replace the POI set subsequent :meth:`knn` calls answer over."""
        ...

    def knn(self, origin: NetworkLocation, k: int) -> List[NetworkNeighbor]:
        """Top-``k`` registered POIs by exact network distance."""
        ...


# ----------------------------------------------------------------------
# Reference implementation
# ----------------------------------------------------------------------


class DijkstraIndex:
    """The reference :class:`NetworkIndex`: plain Dijkstra, no precompute.

    Point-to-point distances run a fresh search up to the destination's
    endpoints; kNN settles the origin's entire component once (exactly what
    the brute-force oracle does) and ranks every registered POI.  This is
    the implementation the differential harness trusts, and the cost
    baseline the hierarchy's settled-vertex speedup is measured against.
    """

    def __init__(self, network: SpatialNetwork) -> None:
        self._network = network
        self._stats = IndexStats()
        self._pois: List[Tuple[NetworkLocation, Any]] = []

    @property
    def network(self) -> SpatialNetwork:
        """The graph this index answers over."""
        return self._network

    @property
    def stats(self) -> IndexStats:
        """Accumulated work counters."""
        return self._stats

    def network_distance(
        self, origin: NetworkLocation, destination: NetworkLocation
    ) -> float:
        """Exact distance via a fresh endpoint-targeted Dijkstra."""
        self._stats.distance_queries += 1
        search = DijkstraSearch(self._network, origin_seeds(origin))
        distance = distance_from(search, origin, destination)
        self._stats.settled_vertices += len(search.settled)
        return distance

    def register_pois(
        self, pois: Sequence[Tuple[NetworkLocation, Any]]
    ) -> None:
        """Replace the POI set subsequent :meth:`knn` calls answer over."""
        self._pois = list(pois)

    def knn(self, origin: NetworkLocation, k: int) -> List[NetworkNeighbor]:
        """Top-``k`` POIs from one full-component Dijkstra."""
        self._stats.knn_queries += 1
        if k <= 0 or not self._pois:
            return []
        search = DijkstraSearch(self._network, origin_seeds(origin))
        search.expand()
        settled = len(search.settled)
        self._stats.settled_vertices += settled
        if OBS.enabled:
            _KNN_QUERIES("dijkstra").inc()
            _SETTLED_VERTICES("dijkstra").inc(settled)
        ranked: List[Tuple[float, TieKey, int, NetworkLocation, Any]] = []
        for order, (location, payload) in enumerate(self._pois):
            distance = distance_from(search, origin, location)
            ranked.append(
                (distance, poi_tie_key(payload), order, location, payload)
            )
        ranked.sort(key=lambda item: (item[0], item[1], item[2]))
        return [
            NetworkNeighbor(
                payload=payload,
                network_distance=distance,
                # Euclidean by design: kNN results report both metrics
                # because SNNN's stopping rule compares them.
                euclidean_distance=origin.point.distance_to(location.point),  # repro: noqa(RPR003)
            )
            for distance, _, _, location, payload in ranked[:k]
        ]


# ----------------------------------------------------------------------
# Hierarchical partition index
# ----------------------------------------------------------------------


@dataclass
class _Partition:
    """One node of the partition tree.

    Leaves hold their member nodes and a ``borders x members`` matrix of
    exact within-leaf distances; internal partitions hold the union of
    their children's borders and an exact within-partition distance
    matrix over that union (the G-tree "distance matrix").
    """

    pid: int
    parent: Optional[int]
    depth: int
    bbox: Tuple[float, float, float, float]
    children: Tuple[int, ...] = ()
    is_leaf: bool = False
    #: Border nodes: members adjacent to at least one node outside this
    #: partition, sorted by node id.
    borders: Tuple[int, ...] = ()
    #: Leaf only -- sorted member node ids and their matrix columns.
    members: Tuple[int, ...] = ()
    member_col: Dict[int, int] = field(default_factory=dict)
    #: Leaf: ``len(borders) x len(members)`` within-leaf distances.
    #: Internal: ``len(union) x len(union)`` within-partition distances.
    matrix: FloatArray = field(
        default_factory=lambda: np.empty((0, 0), dtype=np.float64)
    )
    #: Internal only -- sorted union of children's borders, the matrix's
    #: row/column space, plus index maps into it.
    union: Tuple[int, ...] = ()
    union_index: Dict[int, int] = field(default_factory=dict)
    child_union_pos: Dict[int, "np.ndarray[Any, np.dtype[np.int64]]"] = field(
        default_factory=dict
    )
    border_union_pos: "np.ndarray[Any, np.dtype[np.int64]]" = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


def _bbox_mindist(
    point_x: float, point_y: float, bbox: Tuple[float, float, float, float]
) -> float:
    """Euclidean distance from a point to a partition's bounding box.

    Euclidean by design: network distance to any node inside the box is
    at least the straight-line distance to the box (the graph enforces
    edge length >= chord), so this is the sound best-first key.
    """
    min_x, min_y, max_x, max_y = bbox
    dx = max(min_x - point_x, 0.0, point_x - max_x)
    dy = max(min_y - point_y, 0.0, point_y - max_y)
    return math.hypot(dx, dy)


def _floyd_warshall_inplace(matrix: FloatArray) -> None:
    """Exact all-pairs min-plus closure of a small dense matrix.

    Vectorized over the inner two loops; ``inf`` entries propagate
    harmlessly.  The matrices here are border skeletons (hundreds of
    rows at worst near the root), where O(U^3) in numpy is cheap and,
    unlike repeated squaring, needs no O(U^3) temporary.
    """
    count = matrix.shape[0]
    for k in range(count):
        np.minimum(
            matrix,
            np.add.outer(matrix[:, k], matrix[k, :]),
            out=matrix,
        )


class HierarchicalIndex:
    """G-tree-style hierarchical partition index over a road network.

    Build: recursive coordinate bisection (split the wider bbox axis at
    the median, ties broken by node id, so the tree is a pure function
    of the graph) down to ``leaf_size`` members; per-partition border
    sets; exact within-leaf ``border x member`` matrices from restricted
    Dijkstra; exact within-partition ``union x union`` matrices bottom-up
    by Floyd-Warshall over the child-matrix + cut-edge skeleton.

    Search: best-first partition expansion keyed by Euclidean MINDIST to
    the partition bbox, assembled border-matrix upper bounds to tighten
    the running k-th bound, and exact refinement through a resumable
    origin Dijkstra (see the module docstring for why the answers are
    bit-identical to :class:`DijkstraIndex`).
    """

    def __init__(self, network: SpatialNetwork, leaf_size: int = 64) -> None:
        if leaf_size < 2:
            raise ValueError("leaf_size must be at least 2")
        self._network = network
        self._leaf_size = leaf_size
        self._stats = IndexStats()
        self._pois: List[Tuple[NetworkLocation, Any]] = []
        self._pois_by_edge: Dict[Tuple[int, int], List[int]] = {}
        self._buckets: Dict[int, List[int]] = {}
        self._searches: "OrderedDict[Tuple[Tuple[int, int], float], DijkstraSearch]" = (
            OrderedDict()
        )
        self._parts: List[_Partition] = []
        self._leaf_of: Dict[int, int] = {}
        self._leaf_ancestors: Dict[int, FrozenSet[int]] = {}
        self._component: Dict[int, int] = {}
        self._root: Optional[int] = None
        self._build()

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    @property
    def network(self) -> SpatialNetwork:
        """The graph this index answers over."""
        return self._network

    @property
    def stats(self) -> IndexStats:
        """Accumulated work counters."""
        return self._stats

    def network_distance(
        self, origin: NetworkLocation, destination: NetworkLocation
    ) -> float:
        """Exact distance via the origin's resumable Dijkstra search.

        Disconnected pairs short-circuit to ``inf`` through the
        precomputed component labels without touching the search.
        """
        self._stats.distance_queries += 1
        if (
            self._component[origin.edge.u]
            != self._component[destination.edge.u]
        ):
            return math.inf
        search = self._search_for(origin)
        before = len(search.settled)
        distance = distance_from(search, origin, destination)
        self._stats.settled_vertices += len(search.settled) - before
        return distance

    def register_pois(
        self, pois: Sequence[Tuple[NetworkLocation, Any]]
    ) -> None:
        """Replace the POI set and bucket it by leaf partition.

        A POI on a leaf-straddling edge is bucketed under both endpoint
        leaves, so whichever leaf the search opens first delivers it.
        """
        self._pois = list(pois)
        self._pois_by_edge = {}
        self._buckets = {}
        for idx, (location, _payload) in enumerate(self._pois):
            self._pois_by_edge.setdefault(location.edge.key(), []).append(idx)
            leaves = {
                self._leaf_of[location.edge.u],
                self._leaf_of[location.edge.v],
            }
            for leaf in sorted(leaves):
                self._buckets.setdefault(leaf, []).append(idx)

    def knn(self, origin: NetworkLocation, k: int) -> List[NetworkNeighbor]:
        """Best-first partition expansion with exact refinement.

        Three interleaved streams on one priority queue -- partitions
        keyed by bbox MINDIST, delivered POIs keyed by their Euclidean
        distance -- with the running bound ``U`` = k-th smallest of the
        per-POI upper bounds (assembled estimates, replaced by exact
        distances as refinement lands).  The search stops when the queue
        head exceeds ``U`` plus the float-safety margin; every true
        top-k member is provably refined by then (its Euclidean key is a
        lower bound of its exact distance, which is at most ``U``).
        """
        self._stats.knn_queries += 1
        if k <= 0 or not self._pois or self._root is None:
            return []
        search = self._search_for(origin)
        settled_before = len(search.settled)
        origin_comp = self._component[origin.edge.u]
        origin_vecs = self._origin_vectors(origin)

        queue: List[Tuple[float, int, int, int]] = []
        sequence = 0
        point_x, point_y = origin.point.x, origin.point.y
        heapq.heappush(
            queue,
            (
                _bbox_mindist(point_x, point_y, self._parts[self._root].bbox),
                sequence,
                0,
                self._root,
            ),
        )
        delivered: Dict[int, bool] = {}
        bounds: Dict[int, float] = {}
        refined: List[Tuple[float, TieKey, int, NetworkLocation, Any, float]] = []

        def deliver(idx: int) -> None:
            nonlocal sequence
            if idx in delivered:
                return
            delivered[idx] = True
            location, _payload = self._pois[idx]
            # Euclidean by design: the refinement key is the Euclidean
            # lower bound of the POI's network distance (IER ordering).
            euclid = origin.point.distance_to(location.point)  # repro: noqa(RPR003)
            if self._component[location.edge.u] != origin_comp:
                bounds[idx] = math.inf
            else:
                bounds[idx] = self._assembled_upper(
                    origin, origin_vecs, location
                )
            sequence += 1
            heapq.heappush(queue, (euclid, sequence, 1, idx))

        # POIs sharing the origin's edge bypass the partition walk: the
        # same-edge shortcut is not bounded below by any endpoint-leaf
        # MINDIST, so they must be delivered unconditionally.
        for idx in self._pois_by_edge.get(origin.edge.key(), []):
            deliver(idx)

        while queue:
            key, _seq, kind, ref = queue[0]
            bound = self._kth_bound(bounds, k)
            if key > bound * (1.0 + _MARGIN_REL) + _MARGIN_ABS:
                break
            heapq.heappop(queue)
            if kind == 0:
                part = self._parts[ref]
                if part.is_leaf:
                    self._stats.partitions_opened += 1
                    for idx in self._buckets.get(ref, ()):
                        deliver(idx)
                else:
                    for child in part.children:
                        sequence += 1
                        heapq.heappush(
                            queue,
                            (
                                _bbox_mindist(
                                    point_x,
                                    point_y,
                                    self._parts[child].bbox,
                                ),
                                sequence,
                                0,
                                child,
                            ),
                        )
            else:
                location, payload = self._pois[ref]
                if self._component[location.edge.u] != origin_comp:
                    distance = math.inf
                else:
                    distance = distance_from(search, origin, location)
                bounds[ref] = distance
                self._stats.pois_refined += 1
                refined.append(
                    (distance, poi_tie_key(payload), ref, location, payload, key)
                )

        settled = len(search.settled) - settled_before
        self._stats.settled_vertices += settled
        if OBS.enabled:
            _KNN_QUERIES("hierarchy").inc()
            _SETTLED_VERTICES("hierarchy").inc(settled)
            _POIS_REFINED().inc(sum(1 for _ in refined))
        refined.sort(key=lambda item: (item[0], item[1], item[2]))
        return [
            NetworkNeighbor(
                payload=payload,
                network_distance=distance,
                euclidean_distance=euclid,
            )
            for distance, _, _, _loc, payload, euclid in refined[:k]
        ]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, int]:
        """Structural summary for benches and docs (deterministic)."""
        leaves = [p for p in self._parts if p.is_leaf]
        return {
            "partitions": len(self._parts),
            "leaves": len(leaves),
            "max_depth": max((p.depth for p in self._parts), default=0),
            "border_nodes": sum(len(p.borders) for p in leaves),
            "matrix_entries": sum(int(p.matrix.size) for p in self._parts),
            "leaf_size": self._leaf_size,
        }

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Construct the partition tree, borders and distance matrices."""
        network = self._network
        ids = sorted(network.node_ids())
        self._component = network.component_labels()
        if not ids:
            return
        positions = {node: network.node_position(node) for node in ids}
        xs = np.array([positions[n].x for n in ids], dtype=np.float64)
        ys = np.array([positions[n].y for n in ids], dtype=np.float64)
        id_arr = np.array(ids, dtype=np.int64)

        # Recursive median bisection; explicit stack, children created
        # in sorted-x/y order so pids are a pure function of the graph.
        self._root = 0
        stack: List[Tuple[Optional[int], int, "np.ndarray[Any, np.dtype[np.int64]]"]] = [
            (None, 0, np.arange(len(ids), dtype=np.int64))
        ]
        while stack:
            parent, depth, rows = stack.pop()
            sub_x, sub_y = xs[rows], ys[rows]
            bbox = (
                float(sub_x.min()),
                float(sub_y.min()),
                float(sub_x.max()),
                float(sub_y.max()),
            )
            pid = len(self._parts)
            part = _Partition(pid=pid, parent=parent, depth=depth, bbox=bbox)
            self._parts.append(part)
            if parent is not None:
                self._parts[parent].children = self._parts[parent].children + (
                    pid,
                )
            if len(rows) <= self._leaf_size:
                part.is_leaf = True
                members = tuple(int(n) for n in np.sort(id_arr[rows]))
                part.members = members
                part.member_col = {node: col for col, node in enumerate(members)}
                for node in members:
                    self._leaf_of[node] = pid
                continue
            wide_x = (bbox[2] - bbox[0]) >= (bbox[3] - bbox[1])
            coord = sub_x if wide_x else sub_y
            order = np.lexsort((id_arr[rows], coord))
            half = len(rows) // 2
            # Right child pushed first so the left child pops (and gets
            # its pid assigned) first -- keeps pids deterministic.
            stack.append((pid, depth + 1, rows[order[half:]]))
            stack.append((pid, depth + 1, rows[order[:half]]))

        for leaf_pid in sorted(set(self._leaf_of.values())):
            ancestors = set()
            walk: Optional[int] = leaf_pid
            while walk is not None:
                ancestors.add(walk)
                walk = self._parts[walk].parent
            self._leaf_ancestors[leaf_pid] = frozenset(ancestors)

        self._compute_borders()
        self._compute_leaf_matrices()
        self._compute_union_matrices()

    def _contains(self, pid: int, node: int) -> bool:
        """True when ``node`` is a member of partition ``pid``."""
        return pid in self._leaf_ancestors[self._leaf_of[node]]

    def _compute_borders(self) -> None:
        """Find each partition's border set (members adjacent to outside)."""
        network = self._network
        # Children carry higher pids than their parent (creation order),
        # so reverse pid order visits children first; an internal
        # partition's border candidates are its children's borders.
        for part in reversed(self._parts):
            candidates: List[int]
            if part.is_leaf:
                candidates = list(part.members)
            else:
                merged = set()
                for child in part.children:
                    merged.update(self._parts[child].borders)
                candidates = sorted(merged)
            borders = []
            for node in candidates:
                for neighbor, _edge in network.neighbors(node):
                    if not self._contains(part.pid, neighbor):
                        borders.append(node)
                        break
            part.borders = tuple(borders)

    def _compute_leaf_matrices(self) -> None:
        """Exact within-leaf distances from every border to every member."""
        network = self._network
        for part in self._parts:
            if not part.is_leaf:
                continue
            allowed = frozenset(part.members)
            matrix = np.full(
                (len(part.borders), len(part.members)), np.inf, dtype=np.float64
            )
            for row, border in enumerate(part.borders):
                search = DijkstraSearch(network, [(border, 0.0)], allowed)
                search.expand()
                for node, dist in search.settled.items():
                    matrix[row, part.member_col[node]] = dist
            part.matrix = matrix

    def _child_border_matrix(self, child: _Partition) -> FloatArray:
        """Within-child distances between the child's own border nodes."""
        if child.is_leaf:
            cols = np.array(
                [child.member_col[b] for b in child.borders], dtype=np.int64
            )
            rows = np.arange(len(child.borders), dtype=np.int64)
            return np.asarray(child.matrix[np.ix_(rows, cols)])
        pos = np.array(
            [child.union_index[b] for b in child.borders], dtype=np.int64
        )
        return np.asarray(child.matrix[np.ix_(pos, pos)])

    def _compute_union_matrices(self) -> None:
        """Bottom-up exact within-partition border distance matrices.

        The skeleton graph over a partition's union borders -- child
        border-to-border matrices plus the cut edges between children --
        contains a witness for every within-partition shortest path
        between union nodes, so its Floyd-Warshall closure is exact.
        """
        network = self._network
        for part in reversed(self._parts):
            if part.is_leaf:
                continue
            union_set = set()
            for child in part.children:
                union_set.update(self._parts[child].borders)
            union = tuple(sorted(union_set))
            part.union = union
            part.union_index = {node: i for i, node in enumerate(union)}
            count = len(union)
            matrix = np.full((count, count), np.inf, dtype=np.float64)
            np.fill_diagonal(matrix, 0.0)
            for child_pid in part.children:
                child = self._parts[child_pid]
                pos = np.array(
                    [part.union_index[b] for b in child.borders],
                    dtype=np.int64,
                )
                part.child_union_pos[child_pid] = pos
                if len(pos):
                    block = self._child_border_matrix(child)
                    grid = np.ix_(pos, pos)
                    matrix[grid] = np.minimum(matrix[grid], block)
            for node in union:
                i = part.union_index[node]
                for neighbor, edge in network.neighbors(node):
                    j = part.union_index.get(neighbor)
                    if j is not None and self._contains(part.pid, neighbor):
                        if edge.length < matrix[i, j]:
                            matrix[i, j] = edge.length
                            matrix[j, i] = edge.length
            _floyd_warshall_inplace(matrix)
            part.matrix = matrix
            part.border_union_pos = np.array(
                [part.union_index[b] for b in part.borders], dtype=np.int64
            )

    # ------------------------------------------------------------------
    # assembled upper bounds
    # ------------------------------------------------------------------
    def _lift_node(self, node: int, offset: float) -> Dict[int, FloatArray]:
        """Distances from an on-edge position to border sets up the tree.

        Returns, per non-root partition on ``node``'s root path, an
        upper-bound vector of distances (through ``node`` plus
        ``offset``) to that partition's border nodes.  Each level embeds
        the previous vector in the parent's union space and relaxes it
        through the parent matrix -- the classic G-tree assembly step.
        """
        leaf_pid = self._leaf_of[node]
        leaf = self._parts[leaf_pid]
        vectors: Dict[int, FloatArray] = {}
        vec = np.asarray(leaf.matrix[:, leaf.member_col[node]] + offset)
        current = leaf
        while True:
            if current.parent is None:
                break
            vectors[current.pid] = vec
            parent = self._parts[current.parent]
            full = np.full(len(parent.union), np.inf, dtype=np.float64)
            pos = parent.child_union_pos[current.pid]
            if len(pos):
                full[pos] = np.minimum(full[pos], vec)
            if len(full):
                to_union = np.min(full[:, None] + parent.matrix, axis=0)
            else:
                to_union = full
            vec = np.asarray(to_union[parent.border_union_pos])
            current = parent
        return vectors

    def _origin_vectors(self, origin: NetworkLocation) -> Dict[int, FloatArray]:
        """Merged border-distance vectors for an on-edge origin."""
        vec_u = self._lift_node(origin.edge.u, origin.offset)
        vec_v = self._lift_node(origin.edge.v, origin.offset_from_v)
        merged = dict(vec_u)
        for pid, vec in vec_v.items():
            if pid in merged:
                merged[pid] = np.minimum(merged[pid], vec)
            else:
                merged[pid] = vec
        return merged

    def _assembled_upper(
        self,
        origin: NetworkLocation,
        origin_vecs: Dict[int, FloatArray],
        destination: NetworkLocation,
    ) -> float:
        """Assembled upper bound on the origin-to-destination distance.

        Combines the origin's precomputed vectors with the destination's
        lifted vectors at every tree level: through a shared partition's
        borders, or across the LCA's union matrix between sibling
        children.  Exact when the true path stays inside the LCA; an
        upper bound otherwise -- either way sound for tightening the
        k-th bound, never for final answers.
        """
        best = math.inf
        if origin.edge.key() == destination.edge.key():
            best = abs(origin.offset - destination.offset)
        dest_vecs = self._origin_vectors(destination)
        for pid, dest_vec in dest_vecs.items():
            origin_vec = origin_vecs.get(pid)
            if origin_vec is not None and len(dest_vec):
                through = float(np.min(origin_vec + dest_vec))
                if through < best:
                    best = through
            parent_pid = self._parts[pid].parent
            if parent_pid is None:
                continue
            parent = self._parts[parent_pid]
            for sibling in parent.children:
                if sibling == pid:
                    continue
                origin_side = origin_vecs.get(sibling)
                if origin_side is None or not len(origin_side) or not len(
                    dest_vec
                ):
                    continue
                pos_o = parent.child_union_pos[sibling]
                pos_d = parent.child_union_pos[pid]
                across = parent.matrix[np.ix_(pos_o, pos_d)]
                through = float(
                    np.min(origin_side[:, None] + across + dest_vec[None, :])
                )
                if through < best:
                    best = through
        return best

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _search_for(self, origin: NetworkLocation) -> DijkstraSearch:
        """LRU-cached resumable Dijkstra search seeded at ``origin``."""
        key = (origin.edge.key(), origin.offset)
        search = self._searches.get(key)
        if search is None:
            search = DijkstraSearch(self._network, origin_seeds(origin))
            self._searches[key] = search
            if len(self._searches) > _SEARCH_CACHE:
                self._searches.popitem(last=False)
        else:
            self._searches.move_to_end(key)
        return search

    @staticmethod
    def _kth_bound(bounds: Dict[int, float], k: int) -> float:
        """k-th smallest current upper bound, ``inf`` with fewer than k."""
        if len(bounds) < k:
            return math.inf
        return heapq.nsmallest(k, bounds.values())[-1]


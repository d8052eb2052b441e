"""Shortest paths over the spatial network: one resumable Dijkstra search.

Dijkstra's algorithm [Dijkstra 1959] is the basis for all network-distance
computations in the paper (Section 3.4).  :class:`DijkstraSearch` is the
one loop in :mod:`repro.network` that pops a ``(distance, node)``
frontier: a multi-source search that settles on demand, can be confined
to an allowed vertex set, and keeps predecessors so a path can be read
back.  It walks the network's flat
:meth:`~repro.network.graph.SpatialNetwork.adjacency_rows` and keeps its
best distances and predecessors in lists by node id.  The functions are
thin wrappers over it: one node-to-node path, one source's whole tree
(the road-network mobility model plans trips from one per start node),
how an *on-edge* location seeds a search (:func:`origin_seeds`), and
:func:`network_distance`, the one network-distance function, which folds
a destination's two endpoint distances into its exact distance on a
search the caller owns.  A one-shot caller builds the search inline;
SNNN opens one per query and measures every candidate on it.

Settled values and settle order are a function of the seeds and the graph
alone: the frontier orders by ``(distance, node id)`` and a node is pushed
only on strict improvement, so stopping early, resuming later or asking
for targets in another order cannot change a single float.

The loop needs no settled-set test.  Every edge is longer than zero, so
``dist + length`` is never strictly below the distance of a neighbor
already settled (it was settled at a distance no greater than ``dist``):
the strict-improvement test alone keeps settled nodes unchanged.  A node
is pushed only on strict improvement, so no ``(distance, node)`` pair is
on the heap twice, an entry above the node's best distance is stale, and
the first entry of a node that is not stale is its settle.
"""

from __future__ import annotations

import heapq
import math
from typing import Container, Dict, Iterable, List, Optional, Tuple

from repro.network.graph import NetworkLocation, SpatialNetwork

__all__ = [
    "DijkstraSearch",
    "shortest_path",
    "shortest_path_tree",
    "origin_seeds",
    "network_distance",
]


class DijkstraSearch:
    """A resumable multi-source Dijkstra search over one network.

    ``seeds`` are ``(node, initial_distance)`` pairs; a node outside the
    network raises :class:`KeyError`.  With ``allowed`` the search never
    enters a vertex outside that set (the seeds themselves are taken as
    given).  ``settled`` maps every vertex finalized so far to its exact
    distance; read it, do not write it.  The search walks the network's
    rows as they were when it was created: after ``add_node`` or
    ``add_edge``, start a new one.
    """

    __slots__ = ("_rows", "_allowed", "_pending", "_best", "_predecessor", "settled")

    def __init__(
        self,
        network: SpatialNetwork,
        seeds: Iterable[Tuple[int, float]],
        allowed: Optional[Container[int]] = None,
    ) -> None:
        rows = self._rows = network.adjacency_rows()
        self._allowed = allowed
        self._pending: List[Tuple[float, int]] = []
        best = self._best = [math.inf] * len(rows)
        self._predecessor = [-1] * len(rows)
        self.settled: Dict[int, float] = {}
        for node, initial in seeds:
            if not 0 <= node < len(rows):
                raise KeyError(node)
            if initial < 0.0:
                raise ValueError("source distances must be non-negative")
            if initial < best[node]:
                best[node] = initial
                heapq.heappush(self._pending, (initial, node))

    def expand(
        self, stop: Container[int] = (), bound: float = math.inf
    ) -> Optional[int]:
        """Settle vertices in ``(distance, id)`` order; say why it paused.

        Returns the first newly settled vertex found in ``stop``, or
        ``None`` once the frontier is empty or its nearest vertex lies
        beyond ``bound`` (that vertex stays on the frontier).  The
        defaults run the search to exhaustion.
        """
        rows = self._rows
        allowed = self._allowed
        pending = self._pending
        best = self._best
        predecessor = self._predecessor
        settled = self.settled
        pop, push = heapq.heappop, heapq.heappush
        while pending:
            dist, node = pop(pending)
            if dist > best[node]:
                continue
            if dist > bound:
                push(pending, (dist, node))
                return None
            settled[node] = dist
            for neighbor, length in rows[node]:
                candidate = dist + length
                if candidate < best[neighbor] and (
                    allowed is None or neighbor in allowed
                ):
                    best[neighbor] = candidate
                    predecessor[neighbor] = node
                    push(pending, (candidate, neighbor))
            if node in stop:
                return node
        return None

    def settle(self, node: int, bound: float = math.inf) -> float:
        """Exact distance to ``node``, expanding the search only as far as
        needed and never past ``bound``; ``inf`` when ``node`` is
        unreachable, or lies beyond ``bound`` and is not settled yet."""
        if node not in self.settled:
            self.expand((node,), bound)
        return self.settled.get(node, math.inf)

    def path_to(self, node: int) -> Optional[List[int]]:
        """Node sequence from a seed to the settled ``node``, else ``None``."""
        if node not in self.settled:
            return None
        predecessor = self._predecessor
        path = [node]
        while (previous := predecessor[path[-1]]) >= 0:
            path.append(previous)
        path.reverse()
        return path


def shortest_path(
    network: SpatialNetwork, source: int, target: int
) -> Optional[List[int]]:
    """Node sequence of a shortest path, or ``None`` when unreachable."""
    search = DijkstraSearch(network, [(source, 0.0)])
    search.expand((target,))
    return search.path_to(target)


def shortest_path_tree(network: SpatialNetwork, source: int) -> List[int]:
    """Predecessor of every node by id: -1 for ``source`` and for every
    node it cannot reach.

    The :class:`DijkstraSearch` from ``source`` run to exhaustion, so
    walking it back from a target gives exactly the node sequence
    :func:`shortest_path` returns for that target.
    """
    search = DijkstraSearch(network, [(source, 0.0)])
    search.expand()
    return search._predecessor


def origin_seeds(origin: NetworkLocation) -> List[Tuple[int, float]]:
    """Multi-source seeds for an on-edge location: its two endpoint
    offsets.  Every search from a location must start here, or settled
    values drift between implementations."""
    return [
        (origin.edge.u, origin.offset),
        (origin.edge.v, origin.offset_from_v),
    ]


def network_distance(
    search: DijkstraSearch,
    origin: NetworkLocation,
    destination: NetworkLocation,
    bound: float = math.inf,
) -> float:
    """Exact shortest network distance from ``origin`` to ``destination``;
    ``inf`` when they are disconnected or farther apart than ``bound``.

    ``search`` must be seeded by ``origin_seeds(origin)``; it is resumed
    only as far as the destination's endpoints need and never past
    ``bound``, so one search measures any number of destinations from
    the same origin, each with the float a fresh search would give.
    Both the direct along-edge route (when the two locations share an
    edge) and the routes through the destination's endpoints are
    considered; the minimum wins.
    """
    best = math.inf
    if origin.edge.key() == destination.edge.key():
        best = abs(origin.offset - destination.offset)
    via_u = search.settle(destination.edge.u, bound) + destination.offset
    via_v = search.settle(destination.edge.v, bound) + destination.offset_from_v
    distance = min(best, via_u, via_v)
    # An endpoint settled by an earlier, wider call may give a route
    # beyond ``bound``; a fresh search would not have reached it.
    return distance if distance <= bound else math.inf

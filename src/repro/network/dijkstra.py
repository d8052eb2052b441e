"""Shortest paths over the spatial network: one resumable search, one tree loop.

Dijkstra's algorithm [Dijkstra 1959] is the basis for all network-distance
computations in the paper (Section 3.4).  Two loops in
:mod:`repro.network` pop a ``(distance, node)`` frontier:

- :class:`DijkstraSearch`, a multi-source search that settles on demand,
  can be confined to an allowed vertex set, and keeps predecessors so a
  path can be read back.  Everything but the tree is a thin wrapper over
  it:

  - :func:`shortest_path_lengths` -- single- or multi-source distances,
    optionally stopping once a target set is settled;
  - :func:`shortest_path` -- one concrete node-to-node path;
  - :func:`origin_seeds` / :func:`distance_from` -- how an *on-edge*
    location seeds a search and how a destination's two endpoint
    distances fold into one value (same-edge shortcut included);
  - :func:`network_distance` -- exact distance between two on-edge
    locations, i.e. the two above on a fresh search.

- :func:`shortest_path_tree`, one source run to exhaustion: the path
  from it to every node at once, as a predecessor list by node id (the
  road-network mobility model plans its trips from one such tree per
  start node).  It reads the network's flat
  :meth:`~repro.network.graph.SpatialNetwork.adjacency_rows` and keeps
  its distances and predecessors in lists.

Settled values and settle order are a function of the seeds and the graph
alone: the frontier orders by ``(distance, node id)`` and a node is pushed
only on strict improvement, so stopping early, resuming later or asking
for targets in another order cannot change a single float.

The tree loop needs no settled set and still computes the same floats,
settle order and predecessors as ``DijkstraSearch.expand()`` to
exhaustion.  Every edge is longer than zero, so ``dist + length`` is
never strictly below the distance of a neighbor already settled (it was
settled at a distance no greater than ``dist``): the strict-improvement
test alone keeps settled nodes unchanged.  A node is pushed only on
strict improvement, so no ``(distance, node)`` pair is on the heap
twice, an entry above the node's best distance is stale, and the first
entry of a node that is not stale is its settle.
"""

from __future__ import annotations

import heapq
import math
from typing import Container, Dict, Iterable, List, Optional, Tuple

from repro.network.graph import NetworkLocation, SpatialNetwork

__all__ = [
    "DijkstraSearch",
    "shortest_path_lengths",
    "shortest_path",
    "shortest_path_tree",
    "origin_seeds",
    "distance_from",
    "network_distance",
]


class DijkstraSearch:
    """A resumable multi-source Dijkstra search over one network.

    ``seeds`` are ``(node, initial_distance)`` pairs.  With ``allowed``
    the search never enters a vertex outside that set (the seeds
    themselves are taken as given).  ``settled`` maps every vertex
    finalized so far to its exact distance; read it, do not write it.
    """

    __slots__ = (
        "_network",
        "_allowed",
        "_pending",
        "_tentative",
        "_predecessor",
        "settled",
    )

    def __init__(
        self,
        network: SpatialNetwork,
        seeds: Iterable[Tuple[int, float]],
        allowed: Optional[Container[int]] = None,
    ) -> None:
        self._network = network
        self._allowed = allowed
        self._pending: List[Tuple[float, int]] = []
        self._tentative: Dict[int, float] = {}
        self._predecessor: Dict[int, int] = {}
        self.settled: Dict[int, float] = {}
        for node, initial in seeds:
            if initial < 0.0:
                raise ValueError("source distances must be non-negative")
            if initial < self._tentative.get(node, math.inf):
                self._tentative[node] = initial
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
        settled = self.settled
        tentative = self._tentative
        predecessor = self._predecessor
        pending = self._pending
        neighbors = self._network.neighbors
        allowed = self._allowed
        inf = math.inf
        while pending:
            dist, node = heapq.heappop(pending)
            if node in settled:
                continue
            if dist > bound:
                heapq.heappush(pending, (dist, node))
                return None
            settled[node] = dist
            for neighbor, edge in neighbors(node):
                if neighbor in settled:
                    continue
                if allowed is not None and neighbor not in allowed:
                    continue
                candidate = dist + edge.length
                if candidate < tentative.get(neighbor, inf):
                    tentative[neighbor] = candidate
                    predecessor[neighbor] = node
                    heapq.heappush(pending, (candidate, neighbor))
            if node in stop:
                return node
        return None

    def settle(self, node: int) -> float:
        """Exact distance to ``node`` (``inf`` when unreachable),
        expanding the search only as far as needed."""
        if node not in self.settled:
            self.expand((node,))
        return self.settled.get(node, math.inf)

    def path_to(self, node: int) -> Optional[List[int]]:
        """Node sequence from a seed to the settled ``node``, else ``None``."""
        if node not in self.settled:
            return None
        path = [node]
        while (previous := self._predecessor.get(path[-1])) is not None:
            path.append(previous)
        path.reverse()
        return path


def shortest_path_lengths(
    network: SpatialNetwork,
    sources: Iterable[Tuple[int, float]],
    targets: Optional[Iterable[int]] = None,
) -> Dict[int, float]:
    """Dijkstra from weighted sources.

    ``sources`` is an iterable of ``(node, initial_distance)`` -- the
    multi-source form lets on-edge locations seed the search with their
    two endpoint offsets.  The search stops once every node in ``targets``
    is settled, or runs to exhaustion without targets.  Returns settled
    distances only.
    """
    search = DijkstraSearch(network, sources)
    if targets is None:
        search.expand()
    else:
        for target in targets:
            search.settle(target)
    return search.settled


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

    Walking it back from a target gives exactly the node sequence
    :func:`shortest_path` returns for that target.  The loop is
    :meth:`DijkstraSearch.expand` to exhaustion over
    :meth:`~repro.network.graph.SpatialNetwork.adjacency_rows`, with
    lists for its dicts and without the settled set (see the module
    docstring for why that changes no float and no predecessor).
    """
    rows = network.adjacency_rows()
    if not 0 <= source < len(rows):
        raise KeyError(source)
    best = [math.inf] * len(rows)
    predecessor = [-1] * len(rows)
    best[source] = 0.0
    pending = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while pending:
        dist, node = pop(pending)
        if dist > best[node]:
            continue
        for neighbor, length in rows[node]:
            candidate = dist + length
            if candidate < best[neighbor]:
                best[neighbor] = candidate
                predecessor[neighbor] = node
                push(pending, (candidate, neighbor))
    return predecessor


def origin_seeds(origin: NetworkLocation) -> List[Tuple[int, float]]:
    """Multi-source seeds for an on-edge location: its two endpoint
    offsets.  Every search from a location must start here, or settled
    values drift between implementations."""
    return [
        (origin.edge.u, origin.offset),
        (origin.edge.v, origin.offset_from_v),
    ]


def distance_from(
    search: DijkstraSearch, origin: NetworkLocation, destination: NetworkLocation
) -> float:
    """Distance to ``destination`` on a search seeded by ``origin_seeds(origin)``.

    Both the direct along-edge route (when the two locations share an
    edge) and the routes through the destination's endpoints are
    considered; the minimum wins.  ``inf`` when disconnected.
    """
    best = math.inf
    if origin.edge.key() == destination.edge.key():
        best = abs(origin.offset - destination.offset)
    via_u = search.settle(destination.edge.u) + destination.offset
    via_v = search.settle(destination.edge.v) + destination.offset_from_v
    return min(best, via_u, via_v)


def network_distance(
    network: SpatialNetwork,
    origin: NetworkLocation,
    destination: NetworkLocation,
) -> float:
    """Exact shortest network distance between two on-edge locations
    (``inf`` when they are disconnected)."""
    return distance_from(
        DijkstraSearch(network, origin_seeds(origin)), origin, destination
    )

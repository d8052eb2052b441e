"""Network-distance kNN algorithms: IER and INE.

Papadias et al. proposed two algorithms for nearest neighbor queries in
spatial network databases; the paper builds its SNNN algorithm on the
first one:

- *Incremental Euclidean Restriction* (IER): repeatedly fetch the next
  Euclidean NN, compute its network distance, and stop once the next
  Euclidean distance exceeds the current k-th network distance.  The
  Euclidean lower-bound property (``ED <= ND``) makes this correct.
- *Incremental Network Expansion* (INE): the Dijkstra kernel
  (:class:`repro.network.dijkstra.DijkstraSearch`) expanded from the
  query location until the k nearest POIs are final, included as the
  comparator and as a brute-force oracle for tests.

Both are written against abstract inputs -- an iterator of Euclidean
neighbors and a network-distance function for IER; the graph plus POI
locations for INE -- so that the core SNNN algorithm can feed IER from
*peers and server combined*.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.index.knn import NeighborResult, poi_tie_key
from repro.network.dijkstra import DijkstraSearch, origin_seeds
from repro.network.graph import NetworkLocation, SpatialNetwork

__all__ = [
    "NetworkNeighbor",
    "incremental_euclidean_restriction",
    "incremental_network_expansion",
]


@dataclass(frozen=True, slots=True)
class NetworkNeighbor:
    """A kNN result in network distance.

    ``euclidean_distance`` is kept alongside because SNNN's stopping rule
    compares the two metrics.
    """

    payload: Any
    network_distance: float
    euclidean_distance: float


def incremental_euclidean_restriction(
    euclidean_source: Iterator[NeighborResult],
    network_distance_of: Callable[[NeighborResult, float], float],
    k: int,
) -> List[NetworkNeighbor]:
    """IER-kNN over an incremental Euclidean neighbor stream.

    ``euclidean_source`` must yield neighbors in ascending Euclidean
    distance; ``network_distance_of(candidate, bound)`` evaluates the
    (expensive) network metric.  ``bound`` is the k-th best network
    distance found so far (the search upper bound ``S_bound`` of
    Algorithm 2, ``inf`` until k are found): a candidate farther than
    it cannot enter the answer, so the function may report it as
    ``inf`` instead of measuring it.  Stops as soon as the next
    Euclidean distance exceeds ``S_bound``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return []
    # Max-heap of the k best network distances (negated).
    best: List[Tuple[float, int, NetworkNeighbor]] = []
    order = 0

    def bound() -> float:
        return -best[0][0] if len(best) == k else math.inf

    for candidate in euclidean_source:
        if candidate.distance > bound():
            break
        nd = network_distance_of(candidate, bound())
        if math.isinf(nd):
            continue
        if nd < bound() or len(best) < k:
            neighbor = NetworkNeighbor(candidate.payload, nd, candidate.distance)
            heapq.heappush(best, (-nd, order, neighbor))
            order += 1
            if len(best) > k:
                heapq.heappop(best)
    ordered = sorted(best, key=lambda item: -item[0])
    return [item[2] for item in ordered]


def incremental_network_expansion(
    network: SpatialNetwork,
    origin: NetworkLocation,
    pois: Sequence[Tuple[NetworkLocation, Any]],
    k: int,
) -> List[NetworkNeighbor]:
    """INE-kNN: Dijkstra expansion from ``origin`` until k POIs are final.

    ``pois`` are POIs snapped onto the network.  The expansion settles
    nodes in distance order; a POI's candidate distance (via its edge
    endpoints, or directly when it shares the origin's edge) becomes final
    once the expansion frontier passes it.  Ranks by ``(network_distance,
    poi_tie_key(payload), position in pois)`` like every other network
    kNN here, so the expansion only stops when the k-th candidate is
    *strictly* below the frontier: a POI tied with it may still be ahead.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0 or not pois:
        return []

    # Candidate network distance per POI index; improves as endpoints settle.
    candidates: Dict[int, float] = {}
    # POIs by incident node, with the offset from that node.
    pois_by_node: Dict[int, List[Tuple[int, float]]] = {}
    for index, (location, _) in enumerate(pois):
        if location.edge.key() == origin.edge.key():
            candidates[index] = abs(location.offset - origin.offset)
        pois_by_node.setdefault(location.edge.u, []).append((index, location.offset))
        pois_by_node.setdefault(location.edge.v, []).append(
            (index, location.offset_from_v)
        )

    def kth_candidate() -> float:
        if len(candidates) < k:
            return math.inf
        return sorted(candidates.values())[k - 1]

    # Candidates only change when a POI's endpoint settles, so that is
    # the only time the bound needs recomputing.
    search = DijkstraSearch(network, origin_seeds(origin))
    while (node := search.expand(pois_by_node, kth_candidate())) is not None:
        frontier = search.settled[node]
        for index, extra in pois_by_node[node]:
            candidate = frontier + extra
            if candidate < candidates.get(index, math.inf):
                candidates[index] = candidate

    ordered = sorted(
        candidates, key=lambda i: (candidates[i], poi_tie_key(pois[i][1]), i)
    )[:k]
    results = []
    for index in ordered:
        location, payload = pois[index]
        results.append(
            # Euclidean by design: IER reports ED alongside ND as the
            # lower bound that justified the expansion order.
            NetworkNeighbor(payload, candidates[index], origin.point.distance_to(location.point))
        )
    return results

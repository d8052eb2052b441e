"""SNNN: Sharing-based Network distance Nearest Neighbor query.

Algorithm 2 of the paper, built on SENN and Incremental Euclidean
Restriction (Section 3.4):

1. obtain ``k`` certain Euclidean NNs via SENN;
2. compute their network distances on the host's local modeling graph
   and sort; the k-th network distance becomes the search bound
   ``S_bound``;
3. incrementally fetch further Euclidean NNs (from peers' verified
   results first, then the server) and refine the candidate set until the
   next Euclidean NN lies beyond ``S_bound`` -- correct because the
   Euclidean distance lower-bounds the network distance.

The incremental stream is exactly IER's contract, so the implementation
delegates the loop to
:func:`repro.network.ier.incremental_euclidean_restriction`.  Every
candidate is measured from the same snapped query location, so one query
opens one :class:`~repro.network.dijkstra.DijkstraSearch` and
:func:`~repro.network.dijkstra.network_distance` resumes it per candidate
only as far as that candidate's endpoints need, and never past IER's
current ``S_bound``: a candidate beyond it cannot enter the answer.
Settled distances do not depend on where a search stops, so each float
equals what a fresh search would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.geometry.point import Point
from repro.geometry.tolerance import near_zero
from repro.index.knn import NeighborResult, poi_key
from repro.network.dijkstra import DijkstraSearch, network_distance, origin_seeds
from repro.network.graph import SpatialNetwork
from repro.network.ier import NetworkNeighbor, incremental_euclidean_restriction
from repro.core.cache import CachedQueryResult
from repro.core.senn import ResolutionTier, SennConfig, SennResult, senn_query
from repro.core.backend import SpatialBackend
from repro.obs import OBS, Counter, Instrument

__all__ = ["SnnnResult", "snnn_query"]

_QUERIES = Instrument(Counter, "snnn.queries")
_CANDIDATES = Instrument(Counter, "snnn.candidates", "source")


@dataclass
class SnnnResult:
    """Outcome of one SNNN query."""

    neighbors: List[NetworkNeighbor]
    senn_result: SennResult
    candidates_from_peers: int
    candidates_from_server: int

    @property
    def used_server(self) -> bool:
        """True when any part of the answer required the server."""
        return (
            self.senn_result.tier is ResolutionTier.SERVER
            or self.candidates_from_server > 0
        )


def snnn_query(
    query: Point,
    k: int,
    network: SpatialNetwork,
    own_cache: Optional[CachedQueryResult],
    peer_caches: Sequence[CachedQueryResult],
    config: SennConfig,
    server: Optional[SpatialBackend] = None,
) -> SnnnResult:
    """Run Algorithm 2.

    The host's local modeling graph ``network`` supplies all network
    distances; the query point and every candidate POI are snapped onto
    it.  ``server`` is consulted for Euclidean NNs beyond what the peers
    can certify (and is required whenever the peer caches cannot certify
    even the first ``k``).
    """
    if k < 1:
        raise ValueError("k must be at least 1")

    origin = network.snap(query)
    search = DijkstraSearch(network, origin_seeds(origin))
    # The query host may stand slightly off the network; IER's stop rule
    # needs ED <= ND, which only holds between *on-network* locations.
    # Shrinking every Euclidean distance by the snap displacement restores
    # the lower-bound property (POIs are assumed to lie on the network).
    snap_slack = query.distance_to(origin.point)
    stats = {"peers": 0, "server": 0}

    senn_result = senn_query(
        query, k, own_cache, peer_caches, config, server=server
    )

    def adjusted(neighbor: NeighborResult) -> NeighborResult:
        if near_zero(snap_slack):
            return neighbor
        return NeighborResult(
            neighbor.point, neighbor.payload, max(0.0, neighbor.distance - snap_slack)
        )

    def euclidean_stream() -> Iterator[NeighborResult]:
        """Certified SENN results first, then the server incrementally."""
        yielded: Set[Tuple[float, float, object]] = set()
        for neighbor in senn_result.neighbors:
            key = poi_key(neighbor.point, neighbor.payload)
            if key in yielded:
                continue
            yielded.add(key)
            stats["peers" if senn_result.answered_by_peers else "server"] += 1
            yield adjusted(neighbor)
        if server is None:
            return
        for neighbor in server.incremental_query(query):
            key = poi_key(neighbor.point, neighbor.payload)
            if key in yielded:
                continue
            yielded.add(key)
            stats["server"] += 1
            yield adjusted(neighbor)

    def network_distance_of(candidate: NeighborResult, bound: float) -> float:
        return network_distance(
            search, origin, network.snap(candidate.point), bound
        )

    neighbors = incremental_euclidean_restriction(
        euclidean_stream(), network_distance_of, k
    )
    if OBS.enabled:
        _QUERIES().inc()
        _CANDIDATES("peers").inc(stats["peers"])
        _CANDIDATES("server").inc(stats["server"])
    return SnnnResult(
        neighbors,
        senn_result,
        candidates_from_peers=stats["peers"],
        candidates_from_server=stats["server"],
    )


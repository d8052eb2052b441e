"""SENN: Sharing-based Euclidean distance Nearest Neighbor query.

This is Algorithm 1 of the paper.  Given the query host's position, the
cached results gathered from peers in communication range (plus the
host's own cache), SENN:

1. sorts the cached results by the distance of their query locations to
   ``Q`` (Heuristic 3.3);
2. runs ``kNN_single`` peer by peer, stopping as soon as ``k`` certain
   neighbors are known;
3. otherwise runs ``kNN_multiple`` over the merged certain region;
4. if the heap is full and the host accepts uncertain answers, returns
   the uncertain set;
5. otherwise forwards the residual query to the server together with the
   branch-expanding bounds and the certified partial result.

The function is pure with respect to the caches (they are snapshots); the
only side effects are on the server's access counters when step 5 runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.geometry.coverage import CoverageMethod
from repro.geometry.point import Point
from repro.index.knn import NeighborResult, PruningBounds
from repro.core.backend import SpatialBackend
from repro.core.bounds import derive_pruning_bounds
from repro.core.cache import CachedQueryResult
from repro.core.heap import CandidateHeap
from repro.core.verification import verify_multi_peer, verify_single_peer

__all__ = ["ResolutionTier", "SennConfig", "SennResult", "senn_query"]


class ResolutionTier(enum.Enum):
    """Which mechanism ultimately answered the query (the SQRR buckets)."""

    LOCAL_CACHE = "local-cache"
    SINGLE_PEER = "single-peer"
    MULTI_PEER = "multi-peer"
    UNCERTAIN = "uncertain-accepted"
    SERVER = "server"


@dataclass(frozen=True)
class SennConfig:
    """Tunable knobs of the SENN pipeline.

    ``transmission_range`` is used by callers (hosts / the simulator) to
    select peers; SENN itself only consumes the resulting cache
    snapshots.  ``coverage_method`` selects the multi-peer verification
    backend (exact disk union vs. the paper's polygonization).
    """

    k: int = 3
    transmission_range: float = 0.125
    cache_capacity: int = 10
    coverage_method: CoverageMethod = CoverageMethod.EXACT
    polygon_sides: int = 32
    accept_uncertain: bool = False
    # Extension over cache policy 1: retain the last N query results
    # instead of only the most recent one (1 = the paper's policy).
    cache_history: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.transmission_range < 0.0:
            raise ValueError("transmission_range must be non-negative")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be at least 1")
        if self.polygon_sides < 3:
            raise ValueError("polygon_sides must be at least 3")
        if self.cache_history < 1:
            raise ValueError("cache_history must be at least 1")


@dataclass
class SennResult:
    """Outcome of one SENN query.

    ``neighbors`` always holds (at most) the ``k`` the caller asked for.
    When cache policy 2 over-fetched from the server (``server_k > k``),
    the surplus neighbors live in ``prefetched`` -- the full ascending
    server answer -- which is what the host should *cache*; they are not
    part of the caller-visible answer.

    The candidate heap ``H`` is working state of one query, not part of
    its answer: it dies when :func:`senn_query` returns.  While
    ``accept_uncertain`` is off, an offline run's (``server=None``)
    ``neighbors`` are exactly the heap's certified entries.
    """

    neighbors: List[NeighborResult]
    tier: ResolutionTier
    bounds: PruningBounds
    peers_consulted: int
    server_pages: int = 0
    prefetched: Sequence[NeighborResult] = ()

    @property
    def cacheable(self) -> Sequence[NeighborResult]:
        """What cache policies 1+2 retain: the over-fetched set if the
        server was consulted with ``server_k > k``, the answer itself
        otherwise."""
        return self.prefetched if self.prefetched else self.neighbors

    @property
    def answered_by_peers(self) -> bool:
        """True when sharing alone resolved the query (no server visit)."""
        return self.tier in (
            ResolutionTier.LOCAL_CACHE,
            ResolutionTier.SINGLE_PEER,
            ResolutionTier.MULTI_PEER,
        )


def senn_query(
    query: Point,
    k: int,
    own_cache: Optional[CachedQueryResult],
    peer_caches: Sequence[CachedQueryResult],
    config: SennConfig,
    server: Optional[SpatialBackend] = None,
    server_k: Optional[int] = None,
) -> SennResult:
    """Run Algorithm 1.

    ``own_cache`` is the host's previous result (verified first; a query
    fully answered by it alone counts as LOCAL_CACHE).  ``peer_caches``
    are snapshots collected over the ad-hoc channel.  When the heap falls
    short and ``server`` is provided, the query is forwarded with bounds;
    ``server_k`` lets the host over-fetch to fill its cache (policy 2 of
    Section 4.1) -- the upper bound is only sound for the original ``k``,
    so over-fetching drops it.

    Without a server, a SERVER-tier result contains whatever certain
    entries were collected (callers treat it as "would need the server").

    Everything the query counts -- tier, verifier outcomes, heap offers,
    bound state -- goes on ``heap.tally`` and reaches the registry in one
    flush when the query ends, also when it raises.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    heap = CandidateHeap(k)
    try:
        # Heuristic 3.3: closest query locations first.
        usable_own = own_cache is not None and not own_cache.is_empty()
        ordered_caches: List[CachedQueryResult] = sorted(
            [cache for cache in peer_caches if not cache.is_empty()],
            key=lambda cache: query.distance_to(cache.query_location),
        )

        # Step 0: the host's own cache (local answer).
        if usable_own:
            verify_single_peer(query, own_cache, heap)
            if heap.is_complete():
                return _finish(heap, ResolutionTier.LOCAL_CACHE, peers_consulted=0)

        # Step 1: kNN_single, peer by peer.
        consulted = 0
        for cache in ordered_caches:
            consulted += 1
            verify_single_peer(query, cache, heap)
            if heap.is_complete():
                return _finish(heap, ResolutionTier.SINGLE_PEER, consulted)

        # Step 2: kNN_multiple over the merged certain region.
        all_caches = ([own_cache] if usable_own else []) + ordered_caches
        if len(all_caches) >= 2:
            verify_multi_peer(
                query,
                all_caches,
                heap,
                method=config.coverage_method,
                polygon_sides=config.polygon_sides,
            )
            if heap.is_complete():
                return _finish(heap, ResolutionTier.MULTI_PEER, consulted)

        # Step 3: uncertain answer, if acceptable.
        if config.accept_uncertain and heap.is_full:
            return _finish(heap, ResolutionTier.UNCERTAIN, consulted)

        # Step 4: forward to the server with pruning bounds.
        bounds = derive_pruning_bounds(heap)
        certain = [
            NeighborResult(entry.point, entry.payload, entry.distance)
            for entry in heap.certain_entries()
        ]
        tally = heap.tally
        tally.peers = consulted
        if server is None:
            tally.tiers += (ResolutionTier.SERVER,)
            return SennResult(certain, ResolutionTier.SERVER, bounds, consulted)

        effective_k = k if server_k is None else max(k, server_k)
        if effective_k > k:
            # The upper bound caps the k-th neighbor only; fetching more NNs
            # than k makes it unsound, so keep just the lower bound.
            bounds = PruningBounds(lower=bounds.lower)
        answer = server.knn_query_detailed(query, effective_k, bounds, certain)
        tally.tiers += (ResolutionTier.SERVER,)
        tally.server_pages = answer.pages.total
        # The caller asked for k neighbors; the over-fetched surplus is cache
        # material only (policy 2), never part of the visible answer.
        return SennResult(
            answer.neighbors[:k],
            ResolutionTier.SERVER,
            bounds,
            consulted,
            server_pages=answer.pages.total,
            prefetched=answer.neighbors if effective_k > k else (),
        )
    finally:
        heap.flush_tally()


def _finish(
    heap: CandidateHeap, tier: ResolutionTier, peers_consulted: int
) -> SennResult:
    tally = heap.tally
    tally.tiers += (tier,)
    tally.peers = peers_consulted
    entries = heap.entries() if tier is ResolutionTier.UNCERTAIN else heap.certain_entries()
    neighbors = [
        NeighborResult(entry.point, entry.payload, entry.distance)
        for entry in entries[: heap.capacity]
    ]
    return SennResult(neighbors, tier, derive_pruning_bounds(heap), peers_consulted)

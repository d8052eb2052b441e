"""The mobile host: position, cache, and the query pipeline.

A :class:`MobileHost` owns a GPS position, a local result cache and a
:class:`~repro.core.senn.SennConfig`.  Issuing a query:

1. discovers peers within the wireless transmission range;
2. collects their cache snapshots over the ad-hoc channel;
3. runs SENN (or SNNN in road-network mode);
4. falls back to the server with pruning bounds when peers cannot
   certify ``k`` neighbors, over-fetching to fill the cache (policy 2);
5. stores the certain result in its own cache for future peers.

Hosts also keep per-tier resolution counters, which the simulator
aggregates into the SQRR statistics of Section 4.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.geometry.point import Point
from repro.network.graph import SpatialNetwork
from repro.core.backend import SpatialBackend
from repro.core.cache import CachedQueryResult, QueryCache
from repro.core.senn import ResolutionTier, SennConfig, SennResult, senn_query
from repro.core.snnn import SnnnResult, snnn_query

__all__ = ["MobileHost"]


class MobileHost:
    """One mobile client (a vehicle in the paper's setting)."""

    def __init__(
        self,
        host_id: int,
        position: Point,
        config: SennConfig,
    ) -> None:
        self.host_id = host_id
        self.position = position
        self.config = config
        self.cache = QueryCache(config.cache_capacity, history=config.cache_history)
        self.queries_issued = 0
        self.resolution_counts: Dict[ResolutionTier, int] = {
            tier: 0 for tier in ResolutionTier
        }
        # P2P communication accounting (the overhead side of the paper's
        # trade-off): probes sent over the ad-hoc channel, cache
        # snapshots received, and NN tuples transferred.
        self.peer_probes_sent = 0
        self.peer_caches_received = 0
        self.tuples_received = 0

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def in_range_of(self, other: "MobileHost") -> bool:
        """True when ``other`` is within this host's transmission range."""
        return (
            self.position.distance_to(other.position)
            <= self.config.transmission_range
        )

    def reachable_peers(
        self, hosts: Iterable["MobileHost"]
    ) -> List["MobileHost"]:
        """Hosts (excluding self) inside the communication range."""
        return [
            host
            for host in hosts
            if host is not self and self.in_range_of(host)
        ]

    def cache_snapshot(self) -> Optional[CachedQueryResult]:
        """The newest cached result (legacy single-entry view).

        A read, not a lookup: ``cache.lookups`` does not move.
        """
        return self.cache.get()

    def cache_snapshots(self) -> List[CachedQueryResult]:
        """Everything this host transmits to a querying peer."""
        return list(self.cache.transmitted())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_knn(
        self,
        k: Optional[int] = None,
        peers: Sequence["MobileHost"] = (),
        server: Optional[SpatialBackend] = None,
        timestamp: float = 0.0,
    ) -> SennResult:
        """Issue a Euclidean kNN query (SENN pipeline).

        ``peers`` may be any host collection; only those within range are
        consulted.  The certain result is cached afterwards.
        """
        query_k = self.config.k if k is None else k
        peer_caches = self._collect_peer_caches(peers)
        try:
            result = senn_query(
                self.position,
                query_k,
                self.cache.lookup(),
                peer_caches,
                self.config,
                server=server,
                server_k=self.config.cache_capacity,
            )
            self._account(result.tier)
            self._store_result(result, timestamp)
        finally:
            self.cache.flush_tally()
        return result

    def query_knn_network(
        self,
        network: SpatialNetwork,
        k: Optional[int] = None,
        peers: Sequence["MobileHost"] = (),
        server: Optional[SpatialBackend] = None,
        timestamp: float = 0.0,
    ) -> SnnnResult:
        """Issue a network-distance kNN query (SNNN pipeline)."""
        query_k = self.config.k if k is None else k
        peer_caches = self._collect_peer_caches(peers)
        try:
            result = snnn_query(
                self.position,
                query_k,
                network,
                self.cache.lookup(),
                peer_caches,
                self.config,
                server=server,
            )
            self._account(result.senn_result.tier)
            self._store_result(result.senn_result, timestamp)
        finally:
            self.cache.flush_tally()
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _collect_peer_caches(
        self, peers: Sequence["MobileHost"]
    ) -> List[CachedQueryResult]:
        """Probe in-range peers; account the communication overhead.

        One pass: :meth:`reachable_peers` then :meth:`cache_snapshots`
        per peer, with the range test written out and the counters moved
        once.  With ``cache_history > 1`` the host's own older entries
        are also returned (appended after the peers') so the verification
        passes can use every certain circle available.
        """
        position = self.position
        reach = self.config.transmission_range
        caches: List[CachedQueryResult] = []
        probes = 0
        for peer in peers:
            other = peer.position
            if (
                peer is not self
                and math.hypot(position.x - other.x, position.y - other.y) <= reach
            ):
                probes += 1
                caches += peer.cache.transmitted()
        self.peer_probes_sent += probes
        self.peer_caches_received += len(caches)
        self.tuples_received += sum(entry.k for entry in caches)
        if self.cache.history > 1:  # else the latest is the only entry
            own_history = self.cache.snapshots()[1:]  # latest goes separately
            caches.extend(entry for entry in own_history if not entry.is_empty())
        return caches

    def _account(self, tier: ResolutionTier) -> None:
        self.queries_issued += 1
        self.resolution_counts[tier] += 1

    def _store_result(self, result: SennResult, timestamp: float) -> None:
        """Cache policies 1+2: keep the certain NNs of the most recent
        query, including the policy-2 over-fetch surplus (``cacheable``
        is the full server answer when ``server_k > k`` applied)."""
        if result.tier is ResolutionTier.UNCERTAIN:
            # Uncertain answers must not poison the cache: peers would
            # treat the entries as certain.
            return
        if result.cacheable:
            self.cache.store(self.position, result.cacheable, timestamp)

    def server_share(self) -> float:
        """Fraction of this host's queries that reached the server."""
        if self.queries_issued == 0:
            return 0.0
        return self.resolution_counts[ResolutionTier.SERVER] / self.queries_issued

    def __repr__(self) -> str:
        return (
            f"MobileHost(id={self.host_id}, pos=({self.position.x:.3g}, "
            f"{self.position.y:.3g}), queries={self.queries_issued})"
        )

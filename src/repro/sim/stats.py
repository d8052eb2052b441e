"""Simulation metrics: the SQRR breakdown of Section 4.

The paper's mobile-host metric is the *spatial query request rate*
(SQRR): the share of client queries that must be processed by the remote
server.  Its figures additionally split the peer-resolved share into
single-peer and multi-peer buckets.

:class:`SimulationMetrics` holds plain per-instance tallies: a query
count and a latency sum per resolution tier, server pages and queries,
peer probes and tuples.  Every derived statistic — SQRR, the per-tier
shares, the PAR input — is computed from them on read.  It imports
nothing from :mod:`repro.obs` and ignores the ``REPRO_OBS`` switch: SQRR
is a simulation *result*, not optional telemetry, and two simulations in
one process never mix their accounting.
"""

from __future__ import annotations

from typing import Dict

from repro.core.senn import ResolutionTier

__all__ = ["SimulationMetrics"]


class SimulationMetrics:
    """Aggregated outcome of one simulation run."""

    __slots__ = (
        "_queries",
        "_latency_ms",
        "total_server_pages",
        "server_query_count",
        "total_peer_probes",
        "total_tuples_received",
        "warmup_queries",
    )

    def __init__(self) -> None:
        """Create empty tallies."""
        #: Per tier, in first-recorded order (``total_latency_ms`` adds
        #: the per-tier sums in that order).
        self._queries: Dict[ResolutionTier, int] = {}
        self._latency_ms: Dict[ResolutionTier, float] = {}
        #: Total server page accesses over all SERVER-tier queries.
        self.total_server_pages = 0
        #: Number of queries the server had to process.
        self.server_query_count = 0
        #: Total ad-hoc peer probes sent (P2P communication overhead).
        self.total_peer_probes = 0
        #: Total NN tuples transferred over the P2P channel.
        self.total_tuples_received = 0
        self.warmup_queries = 0

    def record(
        self,
        tier: ResolutionTier,
        server_pages: int = 0,
        peer_probes: int = 0,
        tuples_received: int = 0,
        latency_ms: float = 0.0,
    ) -> None:
        """Account one steady-state query resolved at ``tier``."""
        self._queries[tier] = self._queries.get(tier, 0) + 1
        self._latency_ms[tier] = self._latency_ms.get(tier, 0.0) + latency_ms
        self.total_peer_probes += peer_probes
        self.total_tuples_received += tuples_received
        if tier is ResolutionTier.SERVER:
            self.total_server_pages += server_pages
            self.server_query_count += 1

    # ------------------------------------------------------------------
    # raw tallies
    # ------------------------------------------------------------------
    @property
    def tier_counts(self) -> Dict[ResolutionTier, int]:
        """Recorded query count per resolution tier (all tiers present)."""
        return {tier: self._queries.get(tier, 0) for tier in ResolutionTier}

    @property
    def total_latency_ms(self) -> float:
        """Summed query latency under the simulation's latency model."""
        # A plain left fold: ``sum()`` compensates from Python 3.12 on and
        # would move the last digit of the committed ``mean_latency_ms``.
        total = 0.0
        for tier_sum in self._latency_ms.values():
            total += tier_sum
        return total

    @property
    def latency_by_tier(self) -> Dict[ResolutionTier, float]:
        """Summed latency per resolution tier (all tiers present)."""
        return {tier: self._latency_ms.get(tier, 0.0) for tier in ResolutionTier}

    # ------------------------------------------------------------------
    # derived statistics
    # ------------------------------------------------------------------
    @property
    def total_queries(self) -> int:
        """Number of recorded (post-warm-up) queries."""
        return sum(self._queries.values())

    def share(self, tier: ResolutionTier) -> float:
        """Fraction of recorded queries resolved at ``tier`` (0-1)."""
        total = self.total_queries
        if total == 0:
            return 0.0
        return self._queries.get(tier, 0) / total

    @property
    def server_share(self) -> float:
        """SQRR: the fraction of queries the server had to process."""
        return self.share(ResolutionTier.SERVER)

    @property
    def single_peer_share(self) -> float:
        """Queries solved by one peer's cache (the host's own included --
        it is a cached result from a single past query location)."""
        return self.share(ResolutionTier.LOCAL_CACHE) + self.share(
            ResolutionTier.SINGLE_PEER
        )

    @property
    def multi_peer_share(self) -> float:
        """Queries solved by merging several peers' certain circles."""
        return self.share(ResolutionTier.MULTI_PEER)

    @property
    def peer_share(self) -> float:
        """All queries answered without the server (certain answers only)."""
        return self.single_peer_share + self.multi_peer_share

    def mean_server_pages(self) -> float:
        """Mean page accesses per server-processed query (the PAR input)."""
        count = self.server_query_count
        if count == 0:
            return 0.0
        return self.total_server_pages / count

    def mean_peer_probes(self) -> float:
        """Mean ad-hoc probes sent per query (communication overhead)."""
        total = self.total_queries
        return self.total_peer_probes / total if total else 0.0

    def mean_tuples_received(self) -> float:
        """Mean NN tuples transferred over the P2P channel per query."""
        total = self.total_queries
        return self.total_tuples_received / total if total else 0.0

    def mean_latency_ms(self) -> float:
        """Mean query latency under the simulation's latency model."""
        total = self.total_queries
        return self.total_latency_ms / total if total else 0.0

    def mean_latency_for(self, tier: ResolutionTier) -> float:
        """Mean latency of queries resolved at ``tier``."""
        count = self.tier_counts[tier]
        return self.latency_by_tier[tier] / count if count else 0.0

    def percentages(self) -> Dict[str, float]:
        """The three series of Figures 9-16, in percent."""
        return {
            "server": 100.0 * self.server_share,
            "single_peer": 100.0 * self.single_peer_share,
            "multi_peer": 100.0 * self.multi_peer_share,
        }

    def __repr__(self) -> str:
        p = self.percentages()
        return (
            f"SimulationMetrics(queries={self.total_queries}, "
            f"server={p['server']:.1f}%, single={p['single_peer']:.1f}%, "
            f"multi={p['multi_peer']:.1f}%)"
        )

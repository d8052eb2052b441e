"""Per-host cached NN query results (Section 4.1's cache policies).

Each mobile host manages its local cache with two policies:

1. it stores only the query location and all *certain* nearest neighbors
   of its most recent query;
2. when a query must go to the server it asks for as many NNs as the
   cache capacity allows, so the cached certain circle is as large as
   possible.

A :class:`CachedQueryResult` is what peers exchange: the query location
``P``, the ordered certain neighbors, and the derived *certain circle*
(center ``P``, radius ``Dist(P, n_k)``) -- the region within which the
peer provably knows every POI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.knn import NeighborResult
from repro.obs import OBS, CacheRecord

__all__ = ["CachedQueryResult", "QueryCache"]


@dataclass(frozen=True)
class CachedQueryResult:
    """An immutable snapshot of one cached query result.

    ``neighbors`` are certain NNs of ``query_location`` in ascending
    distance order; invalid orderings are rejected because every
    verification lemma depends on ``Dist(P, n_k)`` being the maximum.
    """

    query_location: Point
    neighbors: Tuple[NeighborResult, ...]
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        distances = [n.distance for n in self.neighbors]
        if any(b < a - 1e-9 for a, b in zip(distances, distances[1:])):
            raise ValueError("cached neighbors must be in ascending distance order")

    @property
    def k(self) -> int:
        """Number of cached neighbors (the k of the original query)."""
        return len(self.neighbors)

    def is_empty(self) -> bool:
        """True when the cache certifies nothing (no POIs)."""
        return not self.neighbors

    @property
    def certain_radius(self) -> float:
        """Radius of the certain circle around ``query_location``."""
        return self.neighbors[-1].distance if self.neighbors else 0.0

    def certain_circle(self) -> Circle:
        """The peer's certain circle (Lemma 3.8's ``P_area``)."""
        return Circle(self.query_location, self.certain_radius)


class QueryCache:
    """A host's local result cache.

    ``capacity`` bounds how many NN objects are stored per entry
    (``C_size`` in Tables 3-4).  The paper's policy 1 keeps only the most
    recent query's result (``history=1``, the default); ``history > 1``
    is this repository's extension that retains the last N results, each
    with its own query location and certain circle -- peers then receive
    several circles from one host, widening the merged certain region.

    A query pipeline reads the cache through :meth:`lookup`, which counts
    (``cache.lookups``); :meth:`get` and ``repr`` only read.  Lookups and
    stores are counted on ``tally`` and published by :meth:`flush_tally`,
    once per host query.
    """

    def __init__(self, capacity: int, history: int = 1) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        if history < 1:
            raise ValueError("history must be at least 1")
        self.capacity = capacity
        self.history = history
        self._entries: List[CachedQueryResult] = []
        self._transmitted: Tuple[CachedQueryResult, ...] = ()
        self.store_count = 0
        self.tally = CacheRecord()

    def store(
        self,
        query_location: Point,
        neighbors: Sequence[NeighborResult],
        timestamp: float = 0.0,
    ) -> CachedQueryResult:
        """Replace the cache with the certain results of the newest query.

        Only the nearest ``capacity`` neighbors are retained; because the
        retained set is a distance-prefix, the certain-circle semantics
        stay exact.
        """
        ordered = sorted(neighbors, key=lambda n: n.distance)
        truncated = len(ordered) > self.capacity
        ordered = ordered[: self.capacity]
        entry = CachedQueryResult(query_location, tuple(ordered), timestamp)
        self._entries.append(entry)
        if len(self._entries) > self.history:
            self._entries.pop(0)
        self._transmitted = tuple(
            kept for kept in reversed(self._entries) if not kept.is_empty()
        )
        self.store_count += 1
        if truncated:
            self.tally.stored_truncated += 1
        else:
            self.tally.stored += 1
        return entry

    def get(self) -> Optional[CachedQueryResult]:
        """The most recent cached result, or ``None`` when cold."""
        return self._entries[-1] if self._entries else None

    def lookup(self) -> Optional[CachedQueryResult]:
        """:meth:`get` on behalf of a query: counted as a hit or a miss."""
        if not self._entries:
            self.tally.lookup_miss += 1
            return None
        self.tally.lookup_hit += 1
        return self._entries[-1]

    def flush_tally(self) -> None:
        """Publish the lookups and stores counted since the last flush."""
        tally, self.tally = self.tally, CacheRecord()
        if OBS.enabled:
            tally.flush()

    def snapshots(self) -> List[CachedQueryResult]:
        """All retained results, newest first."""
        return list(reversed(self._entries))

    def transmitted(self) -> Tuple[CachedQueryResult, ...]:
        """What a querying peer receives: :meth:`snapshots` without the
        results that certify nothing (:meth:`CachedQueryResult.is_empty`).

        Kept up to date by :meth:`store` and :meth:`clear`, so a probe
        costs no allocation.
        """
        return self._transmitted

    def clear(self) -> None:
        """Drop every retained result (e.g. on cache invalidation)."""
        self._entries.clear()
        self._transmitted = ()

    def is_empty(self) -> bool:
        """True when no retained result holds any neighbor tuples."""
        return all(entry.is_empty() for entry in self._entries) if self._entries else True

    def tuple_count(self) -> int:
        """Number of cached NN tuples (the P2P transfer size proxy)."""
        return sum(entry.k for entry in self._entries)

    def __repr__(self) -> str:
        latest = self.get()
        if latest is None:
            return f"QueryCache(capacity={self.capacity}, empty)"
        return (
            f"QueryCache(capacity={self.capacity}, history={self.history}, "
            f"entries={len(self._entries)}, latest_k={latest.k}, "
            f"radius={latest.certain_radius:.4g})"
        )

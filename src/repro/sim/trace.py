"""Query-event tracing and steady-state analysis.

The paper records its metrics "after the system reached steady state".
To make that defensible rather than folklore, the simulator can record a
full query trace -- one event per query with its timestamp, issuing
host, resolution tier and costs -- and this module provides the
time-bucketed analysis that shows where the steady state begins:
the server share starts near 100 % (cold caches) and settles once the
population's caches have turned over.

Traces also export to CSV for external analysis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.senn import ResolutionTier

__all__ = ["QueryEvent", "QueryTrace", "SteadyStateReport"]


@dataclass(frozen=True)
class QueryEvent:
    """One issued query, as recorded by the simulator."""

    timestamp: float  # simulated seconds
    host_id: int
    kind: str  # "knn", the one query kind (the trace format keeps the column)
    parameter: float  # the query's k
    tier: ResolutionTier
    server_pages: int
    peer_probes: int
    tuples_received: int
    latency_ms: float = 0.0


@dataclass
class SteadyStateReport:
    """Server share per time bucket, plus a convergence estimate."""

    bucket_seconds: float
    bucket_starts: List[float]
    server_shares: List[float]  # fraction in [0, 1] per bucket
    query_counts: List[int]

    def settled_after(self, tolerance: float = 0.15) -> Optional[float]:
        """Earliest bucket start from which the server share stays within
        ``tolerance`` of the final bucket's share.  ``None`` if never."""
        if not self.server_shares:
            return None
        final = self.server_shares[-1]
        settled_from: Optional[float] = None
        for start, share in zip(self.bucket_starts, self.server_shares):
            if abs(share - final) <= tolerance:
                if settled_from is None:
                    settled_from = start
            else:
                settled_from = None
        return settled_from


class QueryTrace:
    """An append-only record of query events."""

    def __init__(self) -> None:
        self._events: List[QueryEvent] = []

    def record(self, event: QueryEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[QueryEvent]:
        return list(self._events)

    def events_for_host(self, host_id: int) -> List[QueryEvent]:
        return [event for event in self._events if event.host_id == host_id]

    def server_share(self) -> float:
        if not self._events:
            return 0.0
        server = sum(
            1 for event in self._events if event.tier is ResolutionTier.SERVER
        )
        return server / len(self._events)

    # ------------------------------------------------------------------
    # steady-state analysis
    # ------------------------------------------------------------------
    def steady_state_report(self, bucket_seconds: float) -> SteadyStateReport:
        """Bucket the trace by time and compute per-bucket server shares."""
        if bucket_seconds <= 0.0:
            raise ValueError("bucket_seconds must be positive")
        buckets: Dict[int, List[QueryEvent]] = {}
        for event in self._events:
            buckets.setdefault(int(event.timestamp // bucket_seconds), []).append(event)
        starts: List[float] = []
        shares: List[float] = []
        counts: List[int] = []
        for index in sorted(buckets):
            events = buckets[index]
            starts.append(index * bucket_seconds)
            counts.append(len(events))
            server = sum(
                1 for event in events if event.tier is ResolutionTier.SERVER
            )
            shares.append(server / len(events))
        return SteadyStateReport(bucket_seconds, starts, shares, counts)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def write_csv(self, path: Union[str, Path]) -> None:
        """Dump the trace as CSV with a header row."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "timestamp",
                    "host_id",
                    "kind",
                    "parameter",
                    "tier",
                    "server_pages",
                    "peer_probes",
                    "tuples_received",
                    "latency_ms",
                ]
            )
            for event in self._events:
                writer.writerow(
                    [
                        event.timestamp,
                        event.host_id,
                        event.kind,
                        event.parameter,
                        event.tier.value,
                        event.server_pages,
                        event.peer_probes,
                        event.tuples_received,
                        event.latency_ms,
                    ]
                )

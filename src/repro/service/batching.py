"""Query batching: merge co-located kNN requests into one traversal.

Concurrent mobile hosts cluster spatially (a traffic jam is exactly the
situation where many nearby clients query at once), so the service
groups in-flight kNN requests by the cell of a uniform grid and answers
each group with a *single* shared best-first traversal instead of one
R*-tree descent per client.

The shared traversal runs incremental NN from the centroid ``c`` of the
group's query points.  For a client at ``q_i`` whose current k-th
candidate distance is ``r_i``, the triangle inequality gives
``d(q_i, p) >= d(c, p) - d(c, q_i)``: once the stream distance passes
``d(c, q_i) + r_i`` no later POI can enter client ``i``'s result, so the
client retires.  The stream stops when every client has retired.  Each
client's answer is the exact global top-k by ``(distance, poi_tie_key)``
merged with its ``known_certain`` partial result -- bit-identical to
what :meth:`~repro.core.server.SpatialDatabaseServer.knn_query_detailed`
returns for the same request (the loopback difftest enforces this).

Page accounting follows the amortization story of the issue: R*-tree
node reads of the shared traversal are split evenly across the group
(remainder to the earliest arrivals), while shipped object records stay
exact per client -- EINN semantics, a client is never billed for a
record it already holds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry.point import Point, centroid
from repro.index.knn import (
    NeighborResult,
    TieKey,
    incremental_nearest,
    poi_key,
    poi_tie_key,
)
from repro.index.pagestats import AccessBreakdown
from repro.core.backend import QueryAnswer
from repro.core.server import SpatialDatabaseServer, _record_shipped
from repro.obs import DEFAULT_COUNT_BUCKETS, OBS, Counter, Histogram, Instrument
from repro.service.protocol import KnnRequest

__all__ = ["BatchExecutor"]

_BATCH_SIZE = Instrument(
    Histogram, "service.batch_size", boundaries=DEFAULT_COUNT_BUCKETS
)
_BATCHED_QUERIES = Instrument(Counter, "service.batched_queries")
_SHARED_TRAVERSALS = Instrument(Counter, "service.shared_traversals")

#: Relative slack on the retirement bound: ``d(c, q_i) + r_i`` is exact
#: in real arithmetic but each term carries float rounding, so the
#: traversal reads marginally past the bound rather than risk dropping a
#: boundary POI (extra candidates can never displace true top-k entries,
#: so the slack costs pages, not correctness).
_RETIRE_EPS = 1e-9


class _ClientState:
    """Per-request bookkeeping inside one shared traversal."""

    __slots__ = ("request", "offset", "best", "known_keys", "shipped", "done")

    def __init__(self, request: KnnRequest, representative: Point) -> None:
        self.request = request
        self.offset = representative.distance_to(request.query)
        # Ascending (distance, tie_key, neighbor); seeded with the
        # client's certified partial result exactly like EINN seeds its
        # result list, trimmed to k by the same order.
        self.best: List[Tuple[float, TieKey, NeighborResult]] = sorted(
            (
                (item.distance, poi_tie_key(item.payload), item)
                for item in request.known_certain
            ),
            key=lambda entry: (entry[0], entry[1]),
        )[: request.k]
        self.known_keys: Set[Tuple[float, float, object]] = {
            poi_key(item.point, item.payload) for item in request.known_certain
        }
        self.shipped = 0
        self.done = False

    def cutoff(self) -> float:
        """Largest admissible distance for this client right now."""
        radius = self.request.bounds.upper
        if len(self.best) >= self.request.k:
            radius = min(radius, self.best[self.request.k - 1][0])
        return radius

    def retire_bound(self) -> float:
        """Stream distance beyond which this client cannot improve."""
        bound = self.offset + self.cutoff()
        if math.isinf(bound):
            return bound
        return bound + _RETIRE_EPS * (1.0 + bound)

    def offer(self, neighbor: NeighborResult) -> None:
        """Consider one streamed POI for this client's result."""
        distance = self.request.query.distance_to(neighbor.point)
        # The upper bound caps the k-th *distance*; ties at the bound
        # are admissible regardless of tie key (EINN's kth_cut).
        if distance > self.request.bounds.upper:
            return
        if poi_key(neighbor.point, neighbor.payload) in self.known_keys:
            return
        tie = poi_tie_key(neighbor.payload)
        key = (distance, tie)
        best = self.best
        if len(best) >= self.request.k and key >= (
            best[self.request.k - 1][0],
            best[self.request.k - 1][1],
        ):
            return
        index = len(best)
        while index > 0 and (best[index - 1][0], best[index - 1][1]) > key:
            index -= 1
        best.insert(
            index,
            (distance, tie, NeighborResult(neighbor.point, neighbor.payload, distance)),
        )
        del best[self.request.k :]

    def neighbors(self) -> List[NeighborResult]:
        """The final answer: global top-k merged with ``known_certain``."""
        return [entry[2] for entry in self.best]


class BatchExecutor:
    """Executes waves of kNN requests, merging co-located ones.

    ``cell_size`` controls what counts as co-located: requests whose
    query points fall in the same ``cell_size`` x ``cell_size`` grid
    cell share one traversal.  A group of one simply delegates to the
    server's own :meth:`knn_query_detailed`, so an idle service is
    byte-for-byte the in-process path.
    """

    def __init__(
        self, server: SpatialDatabaseServer, cell_size: float = 0.25
    ) -> None:
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self._server = server
        self.cell_size = cell_size

    def execute(self, requests: Sequence[KnnRequest]) -> List[QueryAnswer]:
        """Answer every request; answers align with ``requests`` by index.

        Requests are grouped by grid cell; groups run in deterministic
        (cell-sorted) order so page-access history is reproducible for a
        given wave regardless of arrival interleaving.
        """
        answers: List[Optional[QueryAnswer]] = [None] * len(requests)
        groups: Dict[Tuple[int, int], List[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(self.cell_of(request.query), []).append(index)
        for cell in sorted(groups):
            members = groups[cell]
            if OBS.enabled:
                _BATCH_SIZE().observe(float(len(members)))
            if len(members) == 1:
                request = requests[members[0]]
                answers[members[0]] = self._server.knn_query_detailed(
                    request.query,
                    request.k,
                    request.bounds,
                    request.known_certain,
                )
            else:
                shared = self._execute_shared(
                    # One member list per batch group; the shared EINN
                    # traversal it enables amortizes far more page reads
                    # than the list costs.
                    [requests[i] for i in members]
                )
                for member, answer in zip(members, shared):
                    answers[member] = answer
        return [answer for answer in answers if answer is not None]

    def cell_of(self, point: Point) -> Tuple[int, int]:
        """The batching cell of ``point``: the key :meth:`execute` groups by.

        The dispatcher asks the same question before it decides to hold
        a wave, so "could share a traversal" has one definition.
        """
        return (
            math.floor(point.x / self.cell_size),
            math.floor(point.y / self.cell_size),
        )

    def _execute_shared(
        self, requests: Sequence[KnnRequest]
    ) -> List[QueryAnswer]:
        """One traversal, many clients (the amortization core)."""
        server = self._server
        representative = _representative(requests)
        clients = [
            _ClientState(request, representative) for request in requests
        ]
        server.counter.start_query()
        stream = incremental_nearest(server.tree, representative, server.counter)
        active = len(clients)
        for neighbor in stream:
            for client in clients:
                if client.done:
                    continue
                if neighbor.distance > client.retire_bound():
                    client.done = True
                    active -= 1
                    continue
                client.offer(neighbor)
            if active == 0:
                stream.close()
                break
        for client in clients:
            # EINN's accounting: what the client certified is not re-shipped.
            client.shipped = _record_shipped(
                server.counter, client.neighbors(), client.known_keys
            )
        breakdown = server.counter.finish_query()
        server.queries_served += len(clients)
        if OBS.enabled:
            _BATCHED_QUERIES().inc(len(clients))
            _SHARED_TRAVERSALS().inc()
        return _amortize(clients, breakdown)


def _representative(requests: Sequence[KnnRequest]) -> Point:
    """The shared traversal's origin: the centroid of the query points."""
    return centroid(request.query for request in requests)


def _amortize(
    clients: Sequence[_ClientState], breakdown: AccessBreakdown
) -> List[QueryAnswer]:
    """Split the batch breakdown into per-client amortized shares.

    Node reads (index + leaf) and buffer traffic divide evenly, with the
    remainder going to the earliest clients in arrival order; the
    ``data_records`` counted for the whole batch are re-attributed
    exactly (each client shipped its own records).
    """
    n = len(clients)
    index_shares = _split_even(breakdown.index_nodes, n)
    leaf_shares = _split_even(breakdown.leaf_nodes, n)
    hit_shares = _split_even(breakdown.buffer_hits, n)
    miss_shares = _split_even(breakdown.buffer_misses, n)
    entry_shares = _split_even(breakdown.entries_scanned, n)
    answers: List[QueryAnswer] = []
    for position, client in enumerate(clients):
        share = AccessBreakdown(
            total=index_shares[position]
            + leaf_shares[position]
            + client.shipped,
            index_nodes=index_shares[position],
            leaf_nodes=leaf_shares[position],
            data_records=client.shipped,
            buffer_hits=hit_shares[position],
            buffer_misses=miss_shares[position],
            entries_scanned=entry_shares[position],
        )
        answers.append(QueryAnswer(client.neighbors(), share, batch_size=n))
    return answers


def _split_even(count: int, parts: int) -> List[int]:
    base, remainder = divmod(count, parts)
    return [base + (1 if position < remainder else 0) for position in range(parts)]

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
from bisect import bisect_right
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.geometry.point import Point, centroid
from repro.index.knn import (
    NeighborResult,
    Ranked,
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

#: A client's rows rank by ``(distance, tie key)``; the neighbor they
#: carry never takes part in a comparison.
_RANK = itemgetter(0, 1)


class _ClientState:
    """Per-request bookkeeping inside one shared traversal.

    What the per-neighbor loop reads are plain fields, set once: the
    query's coordinates, ``k``, the upper bound and the distance from
    the traversal's origin.  Two more are kept current by
    :meth:`_tighten` whenever ``rows`` changes: ``cut``, the largest
    admissible distance, and ``retire``, the stream distance past which
    the client cannot improve.
    """

    __slots__ = (
        "qx",
        "qy",
        "k",
        "upper",
        "offset",
        "rows",
        "known_keys",
        "cut",
        "retire",
        "done",
        "shipped",
    )

    def __init__(self, request: KnnRequest, representative: Point) -> None:
        query = request.query
        self.qx = query.x
        self.qy = query.y
        self.k = request.k
        self.upper = request.bounds.upper
        self.offset = representative.distance_to(query)
        # Rows ``(distance, tie_key, neighbor)``, seeded with the client's
        # certified partial result exactly like EINN seeds its result
        # list, trimmed to k by the same order.  Below k rows the stream
        # appends in arrival order, which nothing reads: the list is sorted
        # once, stably, when it fills (:meth:`filled`) or else at the
        # answer (:meth:`finish`) -- the order insertion after equals keeps.
        known = request.known_certain
        self.rows: List[Ranked] = sorted(
            ((item.distance, poi_tie_key(item.payload), item) for item in known),
            key=_RANK,
        )
        del self.rows[self.k :]
        self.known_keys: Set[Tuple[float, float, object]] = {
            poi_key(item.point, item.payload) for item in known
        }
        self.done = False
        self.shipped = 0
        self._tighten()

    def _tighten(self) -> None:
        """Recompute ``cut`` and ``retire`` from the current rows."""
        cut = self.upper
        if len(self.rows) >= self.k:
            cut = min(cut, self.rows[self.k - 1][0])
        self.cut = cut
        bound = self.offset + cut
        self.retire = bound if math.isinf(bound) else bound + _RETIRE_EPS * (1.0 + bound)

    def filled(self) -> None:
        """The list just reached k rows: sort it, once, and tighten."""
        self.rows.sort(key=_RANK)
        self._tighten()

    def insert(self, distance: float, tie: TieKey, neighbor: NeighborResult) -> None:
        """Store one row that beats a full list's k-th, after its equals."""
        rows = self.rows
        rows.insert(
            bisect_right(rows, (distance, tie), key=_RANK), (distance, tie, neighbor)
        )
        rows.pop()
        self._tighten()

    def finish(self) -> List[Ranked]:
        """The answer's rows, in order: global top-k merged with
        ``known_certain``.  They go to the encoder as they are; nothing
        here builds a :class:`NeighborResult`."""
        rows = self.rows
        if len(rows) < self.k:
            rows.sort(key=_RANK)
        return rows


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
        """One traversal, many clients (the amortization core).

        The wave bills ``server.knn_queries`` and ``server.pages_per_query``
        once per request it answers, each page observation that request's
        amortized total.  Like ``knn_query_detailed``, a wave that raises
        publishes what it counted before the raise.
        """
        server = self._server
        counter = server.counter
        representative = _representative(requests)
        clients = [
            _ClientState(request, representative) for request in requests
        ]
        counter.start_query()
        try:
            _offer_stream(
                clients, incremental_nearest(server.tree, representative, counter)
            )
            for client in clients:
                # EINN's accounting: what the client certified is not re-shipped.
                sources = [source for _, _, source in client.finish()]
                client.shipped = _record_shipped(counter, sources, client.known_keys)
            answers = _amortize(clients, counter.current_breakdown())
            tally = counter.tally
            tally.knn_einn += len(answers)
            tally.pages_einn += tuple(answer.pages.total for answer in answers)
            counter.finish_query()
        except BaseException:
            counter.flush_tally()
            raise
        server.queries_served += len(clients)
        if OBS.enabled:
            _BATCHED_QUERIES().inc(len(clients))
            _SHARED_TRAVERSALS().inc()
        return answers


def _offer_stream(
    clients: Sequence[_ClientState],
    stream: Iterator[NeighborResult],
) -> None:
    """Offer each streamed neighbor to every live client until all retire.

    A neighbor's stream distance, coordinates and tie key are read once;
    its ``poi_key`` only if a client that holds ``known_certain`` gets
    that far.  Per client: past ``retire`` it retires -- tested before
    the offer, so a client that tightens at this neighbor retires at the
    next one, which is where the wave's page reads are pinned
    (``tests/golden/batch_replay.json``) -- then the distance, the cut,
    the known keys and a full list's k-th row decide.
    """
    hypot = math.hypot
    live = list(clients)
    for neighbor in stream:
        stream_distance = neighbor.distance
        point = neighbor.point
        px = point.x
        py = point.y
        tie = poi_tie_key(neighbor.payload)
        key: Optional[Tuple[float, float, object]] = None
        retired = False
        for client in live:
            if stream_distance > client.retire:
                client.done = retired = True
                continue
            # The operand order of ``Point.distance_to``: query first.
            distance = hypot(client.qx - px, client.qy - py)
            # The upper bound caps the k-th *distance*: a tie at the cut is
            # admissible regardless of tie key (EINN's k-th cut).
            if distance > client.cut:
                continue
            known = client.known_keys
            if known:
                if key is None:
                    key = poi_key(point, neighbor.payload)
                if key in known:
                    continue
            rows = client.rows
            if len(rows) < client.k:
                rows.append((distance, tie, neighbor))
                if len(rows) == client.k:
                    client.filled()
                continue
            # A full list holds exactly k rows, and ``distance <= cut <=``
            # its last distance: only an equal distance whose tie key does
            # not beat the last row's is left to reject (the exact tuple
            # order EINN ranks by, so exact equality).
            kth = rows[-1]
            if distance == kth[0] and tie >= kth[1]:  # repro: noqa(RPR001)
                continue
            client.insert(distance, tie, neighbor)
        if retired:
            live = [client for client in live if not client.done]
            if not live:
                stream.close()
                return


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
        answers.append(QueryAnswer(pages=share, batch_size=n, rows=client.rows))
    return answers


def _split_even(count: int, parts: int) -> List[int]:
    base, remainder = divmod(count, parts)
    return [base + (1 if position < remainder else 0) for position in range(parts)]

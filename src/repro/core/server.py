"""The remote spatial database server.

The server indexes the POI set with an R*-tree (branching factor 30, as
in Section 4.4) and answers every kNN query with EINN, the paper's
best-first search extended by the client's pruning bounds and known
POIs (Section 3.3).  Asked with nothing known, EINN reads exactly the
pages INN reads: INN is EINN with default bounds and no known POIs.
The plain INN and depth-first traversals stay in :mod:`repro.index.knn`
as the paper's baselines.

Every query is metered through a :class:`PageAccessCounter`, optionally
backed by an LRU :class:`BufferPool`, producing the PAR statistics of
Section 4.4.  An incremental stream (:class:`NeighborStream`) bills its
own counter and joins the shared history once, when it closes.
"""

from __future__ import annotations

import itertools
from typing import Any, Collection, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.index.knn import (
    NeighborResult,
    PruningBounds,
    incremental_nearest,
    k_nearest_einn,
    poi_key,
)
from repro.index.pagestats import AccessBreakdown, BufferPool, PageAccessCounter
from repro.index.rtree import RTree, RTreeConfig
from repro.core.backend import QueryAnswer

__all__ = ["NeighborStream", "SpatialDatabaseServer"]


def _record_shipped(
    counter: PageAccessCounter,
    results: Sequence[Any],
    held: Collection[Tuple[float, float, object]],
) -> int:
    """Bill one data-node access per result record the client lacks.

    ``results`` are the answer's records in order: neighbors, or the
    sources of a shared traversal's rows (anything with ``.point`` and
    ``.payload``).

    The R*-tree leaves hold object ids; materializing each result record
    costs a page.  ``held`` is the ``poi_key`` of every record the client
    already holds (``known_certain``); those are not re-shipped -- the
    "fewer objects" half of Section 4.4's EINN advantage.  A client that
    holds nothing is shipped everything.  The batching executor calls
    this once per client.  Returns the records billed; the answer and
    its shipped and skipped records go on the counter's tally
    (``server.objects``).
    """
    keys = [poi_key(result.point, result.payload) for result in results]
    if held:
        keys = [key for key in keys if key not in held]
    counter.record_objects(keys)
    shipped = len(keys)
    tally = counter.tally
    tally.answers += 1
    tally.shipped += shipped
    tally.skipped += len(results) - shipped
    return shipped


class SpatialDatabaseServer:
    """A stationary spatial database reachable over the point-to-point
    channel.

    >>> server = SpatialDatabaseServer.from_points([(Point(1, 1), "gas-1")])
    >>> [r.payload for r in server.knn_query(Point(0, 0), 1)]
    ['gas-1']
    """

    def __init__(self, tree: RTree, buffer_capacity: int = 0) -> None:
        self.tree = tree
        pool = BufferPool(buffer_capacity) if buffer_capacity > 0 else None
        self.counter = PageAccessCounter(buffer_pool=pool)
        self.queries_served = 0

    @classmethod
    def from_points(
        cls,
        items: Sequence[Tuple[Point, Any]],
        tree_config: Optional[RTreeConfig] = None,
        buffer_capacity: int = 0,
        bulk: bool = True,
    ) -> "SpatialDatabaseServer":
        """Build a server over a static POI set.

        ``bulk=True`` uses STR packing; ``bulk=False`` inserts one by one
        (exercising the R* insertion path, useful for small dynamic sets).
        """
        config = tree_config if tree_config is not None else RTreeConfig()
        if bulk:
            tree = RTree.bulk_load(list(items), config)
        else:
            tree = RTree(config)
            for point, payload in items:
                tree.insert(point, payload)
        return cls(tree, buffer_capacity=buffer_capacity)

    @property
    def poi_count(self) -> int:
        """Number of POIs in the server's R*-tree."""
        return len(self.tree)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def knn_query_detailed(
        self,
        query: Point,
        k: int,
        bounds: PruningBounds = PruningBounds(),
        known_certain: Sequence[NeighborResult] = (),
    ) -> QueryAnswer:
        """Answer a kNN query with EINN, metering page accesses.

        ``bounds`` and ``known_certain`` are the client's partial result
        (Algorithm 1, line 19-20).  Left at their defaults, the query is
        plain INN -- the INN side of Section 4.4's INN-vs-EINN comparison.

        Returns the neighbors together with *this* query's access
        breakdown, so callers never have to read it back out of the
        shared counter (which another interleaved query may have moved
        on by then).

        What the query counts -- node reads, pruned MBRs, shipped records
        and pages -- is one record, flushed by ``finish_query`` (or, if
        the query raises, by the handler here).
        """
        counter = self.counter
        counter.start_query()
        try:
            results = k_nearest_einn(self.tree, query, k, bounds, known_certain, counter)
            held = {poi_key(r.point, r.payload) for r in known_certain}
            _record_shipped(counter, results, held)
            tally = counter.tally
            tally.knn_einn += 1
            tally.pages_einn += (counter.current_total,)
            breakdown = counter.finish_query()
        except BaseException:
            counter.flush_tally()
            raise
        self.queries_served += 1
        return QueryAnswer(results, breakdown)

    def knn_query(
        self,
        query: Point,
        k: int,
        bounds: PruningBounds = PruningBounds(),
        known_certain: Sequence[NeighborResult] = (),
    ) -> List[NeighborResult]:
        """Neighbors-only convenience wrapper over
        :meth:`knn_query_detailed`."""
        return self.knn_query_detailed(query, k, bounds, known_certain).neighbors

    def open_stream(self, query: Point) -> "NeighborStream":
        """An incremental ascending-distance stream around ``query``,
        billed on its own counter until :meth:`NeighborStream.close`."""
        return NeighborStream(self, query)

    def incremental_query(self, query: Point) -> Iterator[NeighborResult]:
        """Lazy ascending-distance neighbor stream (used by SNNN).

        The stream of :meth:`open_stream`, closed -- its pages folded
        into the shared counter's history -- when the generator is
        exhausted or closed.
        """
        stream = self.open_stream(query)
        try:
            yield from stream
        finally:
            stream.close()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def last_query_breakdown(self) -> Optional[AccessBreakdown]:
        """Page-access breakdown of the most recent query, if any."""
        return self.counter.history[-1] if self.counter.history else None

    def mean_page_accesses(self) -> float:
        """Mean page accesses per query (the PAR metric of Section 4)."""
        return self.counter.mean_per_query()

    def reset_statistics(self) -> None:
        """Zero the page counter and query tally (end of warm-up)."""
        self.counter.reset()
        self.queries_served = 0

    def __repr__(self) -> str:
        return (
            f"SpatialDatabaseServer({self.poi_count} POIs, "
            f"{self.queries_served} queries served)"
        )


class NeighborStream:
    """One incremental nearest-neighbor stream with private page accounting.

    The stream bills a counter of its own that shares the server's
    buffer pool, so pages it reads while *another* query is open cannot
    be attributed to that query.  :meth:`close` folds what it billed into
    the server counter's history as one entry, exactly once: it is
    idempotent and returns the same breakdown every time.  Iterating a
    stream walks ``incremental_nearest`` itself, with no call of the
    stream's between items.
    """

    __slots__ = ("_server_counter", "_counter", "_iterator", "exhausted", "_breakdown")

    def __init__(self, server: SpatialDatabaseServer, query: Point) -> None:
        shared = server.counter
        counter = PageAccessCounter(buffer_pool=shared.buffer_pool)
        counter.start_query()
        self._server_counter = shared
        self._counter = counter
        self._iterator = incremental_nearest(server.tree, query, counter)
        self.exhausted = False
        self._breakdown: Optional[AccessBreakdown] = None

    def __iter__(self) -> Iterator[NeighborResult]:
        return self._iterator

    def pull(self, max_items: int) -> Tuple[NeighborResult, ...]:
        """Next ``max_items`` neighbors (fewer only when exhausted)."""
        items = tuple(itertools.islice(self._iterator, max_items))
        if len(items) < max_items:
            self.exhausted = True
        return items

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has folded the stream."""
        return self._breakdown is not None

    def close(self) -> AccessBreakdown:
        """Stop the stream and fold its pages into the server's history
        (once; later calls return the same breakdown)."""
        if self._breakdown is None:
            self._iterator.close()
            breakdown = self._breakdown = self._counter.finish_query()
            shared = self._server_counter
            shared.history.append(breakdown)
            shared.total_accesses += breakdown.total
            shared.total_entries_scanned += breakdown.entries_scanned
        return self._breakdown

"""The spatial-query backend contract shared by server and service.

Historically the SENN/SNNN pipelines were welded to the in-process
:class:`~repro.core.server.SpatialDatabaseServer`.  With the query
service (:mod:`repro.service`) the same pipelines must also run against
a remote server reached over a wire protocol, so the dependency is
inverted: everything above the server programs against the
:class:`SpatialBackend` protocol defined here, and both the in-process
server and the service-backed client implement it.

The protocol's query methods return a :class:`QueryAnswer` -- the
neighbor list *plus* the page-access breakdown of exactly that query.
Callers must never read breakdowns back out of shared mutable server
state (``last_query_breakdown()``): the moment two queries interleave
(which a concurrent service guarantees), the "last" breakdown belongs
to somebody else.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Protocol, Sequence, runtime_checkable

from repro.geometry.point import Point
from repro.index.knn import NeighborResult, PruningBounds, Ranked, neighbors_of
from repro.index.pagestats import AccessBreakdown

__all__ = ["QueryAnswer", "SpatialBackend"]


class QueryAnswer:
    """One query's complete outcome: the neighbors and what they cost.

    ``pages`` is the access breakdown attributed to this query alone.
    When the query was executed as part of a merged batch (the service's
    shared traversals), ``batch_size`` records how many client requests
    shared the traversal and ``pages`` holds this request's amortized
    share of the batch's node reads (object-record accesses stay exact
    per client).

    A shared traversal hands its answer over as ``rows``, the
    :data:`~repro.index.knn.Ranked` rows it ranked the answer by; then
    ``neighbors`` is built from them on first read, so an answer that goes
    straight to the wire encoder never builds a :class:`NeighborResult`.
    """

    __slots__ = ("_neighbors", "pages", "batch_size", "rows")

    def __init__(
        self,
        neighbors: Optional[List[NeighborResult]] = None,
        pages: Optional[AccessBreakdown] = None,
        batch_size: int = 1,
        rows: Optional[List[Ranked]] = None,
    ) -> None:
        if neighbors is None and rows is None:
            neighbors = []
        self._neighbors = neighbors
        self.pages = pages if pages is not None else AccessBreakdown(0, 0, 0)
        self.batch_size = batch_size
        self.rows = rows

    @property
    def neighbors(self) -> List[NeighborResult]:
        """The answer, nearest first (built from ``rows`` on first read)."""
        if self._neighbors is None:
            assert self.rows is not None
            self._neighbors = neighbors_of(self.rows)
        return self._neighbors

    @property
    def total_pages(self) -> int:
        """Shorthand for ``pages.total``."""
        return self.pages.total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryAnswer):
            return NotImplemented
        return (self.neighbors, self.pages, self.batch_size) == (
            other.neighbors, other.pages, other.batch_size
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"QueryAnswer(neighbors={self.neighbors!r}, pages={self.pages!r}, "
            f"batch_size={self.batch_size!r})"
        )


@runtime_checkable
class SpatialBackend(Protocol):
    """What SENN/SNNN/naive-sharing need from "the server".

    Implemented by :class:`~repro.core.server.SpatialDatabaseServer`
    (in-process) and :class:`repro.service.client.ServiceClient`
    (through the wire protocol, over any transport).  The incremental
    stream must bill a counter of its own so interleaved queries cannot
    steal each other's page accesses.
    """

    def knn_query_detailed(
        self,
        query: Point,
        k: int,
        bounds: PruningBounds = ...,
        known_certain: Sequence[NeighborResult] = ...,
    ) -> QueryAnswer:
        """Answer a kNN query; breakdown attributed to this call only."""
        ...

    def incremental_query(self, query: Point) -> Iterator[NeighborResult]:
        """Lazy ascending-distance neighbor stream (IER's contract)."""
        ...

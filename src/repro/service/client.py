"""The service client: a :class:`SpatialBackend` that speaks the wire.

``ServiceClient`` turns backend method calls into protocol frames and
replies back into :class:`~repro.core.backend.QueryAnswer` objects.
Because it satisfies the same :class:`~repro.core.backend.SpatialBackend`
protocol as the in-process server, every consumer -- ``senn_query``,
``snnn_query``, the simulator, the difftest oracles -- runs unchanged
against a served backend; only the ``server=`` argument differs.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence, Type, TypeVar

from repro.geometry.point import Point
from repro.index.knn import NeighborResult, PruningBounds
from repro.core.backend import QueryAnswer
from repro.service.protocol import (
    Answer,
    ErrorCode,
    ErrorReply,
    KnnRequest,
    Message,
    ProtocolError,
    StreamClose,
    StreamHandle,
    StreamItems,
    StreamOpen,
    StreamPull,
    decode_message,
    encode_message,
)
from repro.service.transport import QueryTransport

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The service answered with an :class:`ErrorReply`."""

    def __init__(self, code: ErrorCode, message: str) -> None:
        super().__init__(f"[{code.name}] {message}")
        self.code = code


class ServiceClient:
    """A remote spatial backend reached through a transport.

    ``stream_chunk`` sets how many neighbors each incremental-stream
    pull requests (the server may cap it further).
    """

    def __init__(
        self, transport: QueryTransport, stream_chunk: int = 32
    ) -> None:
        if stream_chunk < 1:
            raise ValueError("stream_chunk must be at least 1")
        self._transport = transport
        self._ids = itertools.count(1)
        self.stream_chunk = stream_chunk

    # ------------------------------------------------------------------
    # SpatialBackend protocol
    # ------------------------------------------------------------------
    def knn_query_detailed(
        self,
        query: Point,
        k: int,
        bounds: PruningBounds = PruningBounds(),
        known_certain: Sequence[NeighborResult] = (),
    ) -> QueryAnswer:
        """kNN over the wire, with bounds and the certified partial."""
        reply = self._roundtrip(
            KnnRequest(
                next(self._ids), query, k, bounds, tuple(known_certain)
            )
        )
        return _to_query_answer(_expect(reply, Answer))

    def knn_query(
        self,
        query: Point,
        k: int,
        bounds: PruningBounds = PruningBounds(),
        known_certain: Sequence[NeighborResult] = (),
    ) -> List[NeighborResult]:
        """Neighbors-only convenience over :meth:`knn_query_detailed`."""
        return self.knn_query_detailed(query, k, bounds, known_certain).neighbors

    def incremental_query(self, query: Point) -> Iterator[NeighborResult]:
        """Lazy neighbor stream over the wire.

        Closing the generator closes the remote stream, folding its
        pages into the server's history.
        """
        handle = _expect(
            self._roundtrip(StreamOpen(next(self._ids), query)), StreamHandle
        )
        return self._stream_items(handle.stream_id)

    def _stream_items(self, stream_id: int) -> Iterator[NeighborResult]:
        try:
            while True:
                items = _expect(
                    self._roundtrip(
                        StreamPull(
                            next(self._ids), stream_id, self.stream_chunk
                        )
                    ),
                    StreamItems,
                )
                yield from items.items
                if items.exhausted:
                    break
        finally:
            try:
                self._roundtrip(StreamClose(next(self._ids), stream_id))
            except (ServiceError, ProtocolError, OSError):
                # Closing a torn-down stream is best-effort; the server
                # folds orphaned streams when the session closes.
                pass

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _roundtrip(self, request: Message) -> Message:
        reply = decode_message(self._transport.request(encode_message(request)))
        if isinstance(reply, ErrorReply):
            raise ServiceError(reply.code, reply.message)
        expected_id = getattr(request, "request_id", 0)
        actual_id = getattr(reply, "request_id", 0)
        if actual_id != expected_id:
            raise ProtocolError(
                f"reply for request {actual_id}, expected {expected_id}"
            )
        return reply

    def close(self) -> None:
        """Close the underlying transport."""
        self._transport.close()


def _to_query_answer(answer: Answer) -> QueryAnswer:
    return QueryAnswer(
        list(answer.neighbors), answer.breakdown, answer.batch_size
    )


_M = TypeVar("_M", Answer, StreamHandle, StreamItems)


def _expect(reply: Message, expected: Type[_M]) -> _M:
    if not isinstance(reply, expected):
        raise ProtocolError(
            f"expected {expected.__name__}, got {type(reply).__name__}"
        )
    return reply

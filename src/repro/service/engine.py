"""Transport-independent execution of protocol requests.

:class:`QueryService` wraps one
:class:`~repro.core.server.SpatialDatabaseServer` and turns decoded
protocol messages into protocol replies.  It is deliberately synchronous
-- the asyncio server and the in-process loopback transport drive the
*same* object, which is what makes the loopback difftest meaningful: a
query answered over TCP and one answered in-process execute identical
code from the first decoded byte onward.

Streams are scoped to a :class:`ServiceSession` (one per connection /
loopback client): each open incremental stream meters onto its own
sub-counter and folds into the server's history exactly once, when the
stream is exhausted or closed -- the same discipline as
:meth:`SpatialDatabaseServer.incremental_query`, but with the breakdown
kept so it can be shipped back in :class:`~repro.service.protocol.StreamEnd`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence

from repro.geometry.point import Point
from repro.index.knn import NeighborResult, incremental_nearest
from repro.index.pagestats import AccessBreakdown
from repro.core.backend import QueryAnswer
from repro.core.server import SpatialDatabaseServer
from repro.obs import OBS, Counter, Instrument
from repro.service.batching import BatchExecutor
from repro.service.protocol import (
    Answer,
    ErrorCode,
    ErrorReply,
    KnnRequest,
    Message,
    ProtocolError,
    RangeRequest,
    StreamClose,
    StreamEnd,
    StreamHandle,
    StreamItems,
    StreamOpen,
    StreamPull,
    WindowRequest,
)

__all__ = ["QueryService", "ServiceSession"]

_ERRORS = Instrument(Counter, "service.errors", "code")
_STREAMS = Instrument(Counter, "service.streams", "event")


class _Stream:
    """One open incremental stream with private page accounting."""

    def __init__(self, server: SpatialDatabaseServer, query: Point) -> None:
        self._server = server
        self._sub = server.counter.subcounter()
        self._sub.start_query()
        self._iterator: Iterator[NeighborResult] = incremental_nearest(
            server.tree, query, self._sub
        )
        self.exhausted = False
        self._breakdown: Optional[AccessBreakdown] = None

    def pull(self, max_items: int) -> List[NeighborResult]:
        """Next ``max_items`` neighbors (fewer only when exhausted)."""
        items: List[NeighborResult] = []
        while len(items) < max_items:
            try:
                items.append(next(self._iterator))
            except StopIteration:
                self.exhausted = True
                break
        return items

    def finalize(self) -> AccessBreakdown:
        """Fold this stream's accesses into server history (idempotent)."""
        if self._breakdown is None:
            close = getattr(self._iterator, "close", None)
            if close is not None:
                close()
            self._breakdown = self._sub.finish_query()
            self._server.counter.absorb(self._breakdown)
        return self._breakdown


class QueryService:
    """The serving engine: batching executor plus session factory.

    ``batch_cell_size`` is forwarded to the :class:`BatchExecutor`;
    ``stream_chunk`` caps how many neighbors one :class:`StreamPull`
    may return regardless of what the client asked for.
    """

    def __init__(
        self,
        server: SpatialDatabaseServer,
        batch_cell_size: float = 0.25,
        stream_chunk: int = 128,
    ) -> None:
        if stream_chunk < 1:
            raise ValueError("stream_chunk must be at least 1")
        self.server = server
        self.executor = BatchExecutor(server, cell_size=batch_cell_size)
        self.stream_chunk = stream_chunk

    def session(self) -> "ServiceSession":
        """A new session (one per connection or loopback client)."""
        return ServiceSession(self)

    def execute_knn_batch(
        self, requests: Sequence[KnnRequest]
    ) -> List[Answer]:
        """Answer a wave of kNN requests, merging co-located ones."""
        answers = self.executor.execute(requests)
        return [
            _reply(request.request_id, answer)
            for request, answer in zip(requests, answers)
        ]


class ServiceSession:
    """Per-connection state: open streams and their ids.

    :meth:`handle` never raises for request-level problems -- it returns
    an :class:`ErrorReply` so the transport can always send *something*
    back.  Only a non-request message (a client decoding bug) raises.
    """

    def __init__(self, service: QueryService) -> None:
        self._service = service
        self._streams: Dict[int, _Stream] = {}
        self._ids = itertools.count(1)

    @property
    def open_streams(self) -> int:
        """Number of streams this session has open."""
        return len(self._streams)

    def handle(self, message: Message) -> Message:
        """Execute one request and produce its reply."""
        try:
            if isinstance(message, KnnRequest):
                return self._service.execute_knn_batch([message])[0]
            if isinstance(message, RangeRequest):
                return self._range(message)
            if isinstance(message, WindowRequest):
                return self._window(message)
            if isinstance(message, StreamOpen):
                return self._stream_open(message)
            if isinstance(message, StreamPull):
                return self._stream_pull(message)
            if isinstance(message, StreamClose):
                return self._stream_close(message)
        except ProtocolError as exc:
            return _error_reply(_request_id(message), exc.code, str(exc))
        except (ValueError, ArithmeticError) as exc:
            return _error_reply(_request_id(message), ErrorCode.INTERNAL, str(exc))
        raise ProtocolError(
            f"{type(message).__name__} is not a request",
            ErrorCode.UNSUPPORTED,
        )

    def close(self) -> None:
        """Drop the session, folding every open stream into history."""
        for stream in self._streams.values():
            stream.finalize()
        self._streams.clear()

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    def _range(self, message: RangeRequest) -> Answer:
        answer = self._service.server.range_query_detailed(
            message.center, message.radius
        )
        return _reply(message.request_id, answer)

    def _window(self, message: WindowRequest) -> Answer:
        answer = self._service.server.window_query_detailed(message.window)
        return _reply(message.request_id, answer)

    def _stream_open(self, message: StreamOpen) -> StreamHandle:
        stream_id = next(self._ids)
        self._streams[stream_id] = _Stream(
            self._service.server, message.query
        )
        if OBS.enabled:
            _STREAMS("opened").inc()
        return StreamHandle(message.request_id, stream_id)

    def _stream_pull(self, message: StreamPull) -> StreamItems:
        stream = self._streams.get(message.stream_id)
        if stream is None:
            raise ProtocolError(
                f"unknown stream id: {message.stream_id}", ErrorCode.BAD_STREAM
            )
        limit = min(message.max_items, self._service.stream_chunk)
        items = stream.pull(limit)
        return StreamItems(
            message.request_id,
            message.stream_id,
            tuple(items),
            stream.exhausted,
        )

    def _stream_close(self, message: StreamClose) -> StreamEnd:
        stream = self._streams.pop(message.stream_id, None)
        if stream is None:
            raise ProtocolError(
                f"unknown stream id: {message.stream_id}", ErrorCode.BAD_STREAM
            )
        breakdown = stream.finalize()
        if OBS.enabled:
            _STREAMS("closed").inc()
        return StreamEnd(message.request_id, message.stream_id, breakdown)


def _reply(request_id: int, answer: QueryAnswer) -> Answer:
    """``answer`` as the reply to ``request_id``; a shared traversal's
    rows reach the encoder as they are."""
    if answer.rows is not None:
        return Answer(request_id, None, answer.pages, answer.batch_size, answer.rows)
    return Answer(request_id, tuple(answer.neighbors), answer.pages, answer.batch_size)


def _error_reply(request_id: int, code: ErrorCode, text: str) -> ErrorReply:
    """An :class:`ErrorReply`, counted on ``service.errors{code}``."""
    if OBS.enabled:
        _ERRORS(code.name).inc()
    return ErrorReply(request_id, code, text)


def _request_id(message: Message) -> int:
    return getattr(message, "request_id", 0)

"""Transport-independent execution of protocol requests.

:class:`QueryService` wraps one
:class:`~repro.core.server.SpatialDatabaseServer` and turns decoded
protocol messages into protocol replies.  It is deliberately synchronous
-- the asyncio server and the in-process loopback transport drive the
*same* object, which is what makes the loopback difftest meaningful: a
query answered over TCP and one answered in-process execute identical
code from the first decoded byte onward.

Streams are scoped to a :class:`ServiceSession` (one per connection /
loopback client): each is the server's own
:class:`~repro.core.server.NeighborStream`, whose ``close`` folds its
pages into the server's history exactly once -- on
:class:`~repro.service.protocol.StreamClose`, which ships the breakdown
back in :class:`~repro.service.protocol.StreamEnd`, or when the session
closes with the stream still open.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from repro.core.backend import QueryAnswer
from repro.core.server import NeighborStream, SpatialDatabaseServer
from repro.obs import OBS, Counter, Instrument
from repro.service.batching import BatchExecutor
from repro.service.protocol import (
    Answer,
    ErrorCode,
    ErrorReply,
    KnnRequest,
    Message,
    ProtocolError,
    StreamClose,
    StreamEnd,
    StreamHandle,
    StreamItems,
    StreamOpen,
    StreamPull,
)

__all__ = ["QueryService", "ServiceSession"]

_ERRORS = Instrument(Counter, "service.errors", "code")
_STREAMS = Instrument(Counter, "service.streams", "event")


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
        self._streams: Dict[int, NeighborStream] = {}
        self._ids = itertools.count(1)

    def handle(self, message: Message) -> Message:
        """Execute one request and produce its reply."""
        try:
            if isinstance(message, KnnRequest):
                return self._service.execute_knn_batch([message])[0]
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
            stream.close()
        self._streams.clear()

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    def _stream_open(self, message: StreamOpen) -> StreamHandle:
        stream_id = next(self._ids)
        self._streams[stream_id] = self._service.server.open_stream(message.query)
        if OBS.enabled:
            _STREAMS("opened").inc()
        return StreamHandle(message.request_id, stream_id)

    def _stream_pull(self, message: StreamPull) -> StreamItems:
        stream = _known(message.stream_id, self._streams.get(message.stream_id))
        items = stream.pull(min(message.max_items, self._service.stream_chunk))
        return StreamItems(
            message.request_id, message.stream_id, items, stream.exhausted
        )

    def _stream_close(self, message: StreamClose) -> StreamEnd:
        stream = _known(message.stream_id, self._streams.pop(message.stream_id, None))
        breakdown = stream.close()
        if OBS.enabled:
            _STREAMS("closed").inc()
        return StreamEnd(message.request_id, message.stream_id, breakdown)


def _known(stream_id: int, stream: Optional[NeighborStream]) -> NeighborStream:
    """``stream``, or ``BAD_STREAM`` if the session has no ``stream_id``."""
    if stream is None:
        raise ProtocolError(f"unknown stream id: {stream_id}", ErrorCode.BAD_STREAM)
    return stream


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

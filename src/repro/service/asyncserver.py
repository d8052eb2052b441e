"""The asyncio TCP query server.

One event loop, one :class:`~repro.service.engine.QueryService`, no
task per connection: each connection is a :class:`_Connection` that
buffers what it receives and cuts out every whole frame (an
``asyncio.BufferedProtocol``: the socket is read into one kept buffer,
not a fresh 256 KiB ``bytes`` per read as ``data_received`` would
cost).  Stream requests are answered on the spot.
kNN requests go onto the batching dispatcher's ``deque``; one
``call_soon`` wakes an idle dispatcher, which hands what is in flight
across all connections as one wave to the
:class:`~repro.service.batching.BatchExecutor` (shared traversals).

A wave with two requests in one batching cell is *held*; arrivals join
it until it reaches ``max_batch``, or every open connection has a
request in it, or ``batch_window_s`` has passed since its oldest
enqueue (a ``call_later`` timer).  The first two are checked on every
arrival and every close and release the wave with ``call_soon``, so the
arriving connection's buffered frames are all parsed into it first.  An
open but idle connection keeps co-located waves held for the window.  A
wave without cell-mates runs at once.  A wave's replies to one
connection leave in one write.

Flow control needs no lock, semaphore or task.  A connection stops
cutting frames and reading its socket while it is *stalled*:
``max_inflight`` of its kNN requests are unanswered; the queue holds
``queue_capacity`` requests (the next wave wakes it); or its transport
called ``pause_writing`` -- until ``resume_writing`` its answered
requests also keep their inflight slots.  A queued request older than
``request_timeout_s`` gets a ``TIMEOUT`` error instead of an answer.

Malformed framing is unrecoverable on a byte stream: the connection
stops reading and, once every request before the bad frame is answered,
sends a ``MALFORMED``/``OVERSIZED``/``UNSUPPORTED`` error and closes.  The
error carries the frame's request id when the header parsed and the
whole frame arrived (a value the protocol forbids, such as a negative
radius), and 0 when the header itself was bad.  A
reply the wire cannot carry (over ``MAX_PAYLOAD``, or a POI payload type
without a tag) is not fatal: that request alone gets an ``OVERSIZED`` or
``UNSUPPORTED`` error, and its slot is freed like any other reply's.
"""

from __future__ import annotations

import asyncio
import struct
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.server import SpatialDatabaseServer
from repro.obs import DEFAULT_TIME_BUCKETS_S, OBS, Counter, Gauge, Histogram, Instrument
from repro.service.engine import QueryService, _error_reply
from repro.service.protocol import (
    HEADER_SIZE,
    ErrorCode,
    ErrorReply,
    KnnRequest,
    Message,
    ProtocolError,
    decode_message,
    encode_message,
    parse_header,
)

__all__ = ["AsyncQueryServer", "BackgroundServer", "ServiceConfig"]

_CONNECTIONS = Instrument(Counter, "service.connections", "event")
_REQUESTS = Instrument(Counter, "service.requests", "type")
_TIMEOUTS = Instrument(Counter, "service.timeouts")
_DISPATCH = Instrument(Counter, "service.dispatch", "decision")
_QUEUE_DEPTH = Instrument(Gauge, "service.queue_depth")
_HOLD_S = Instrument(Histogram, "service.hold_s", boundaries=DEFAULT_TIME_BUCKETS_S)
_REQUEST_LATENCY_S = Instrument(
    Histogram, "service.request_latency_s", boundaries=DEFAULT_TIME_BUCKETS_S
)
_STALE = "request timed out in the service queue"
_REQUEST_ID = struct.Struct(">I")


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of the asyncio server (see ``docs/service.md``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from ``address``
    batch_cell_size: float = 0.25
    batch_window_s: float = 0.002
    max_batch: int = 64
    max_inflight: int = 32
    queue_capacity: int = 1024
    request_timeout_s: float = 30.0
    stream_chunk: int = 128

    def __post_init__(self) -> None:
        if self.batch_cell_size <= 0.0:
            raise ValueError("batch_cell_size must be positive")
        if self.batch_window_s < 0.0:
            raise ValueError("batch_window_s must be non-negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.request_timeout_s <= 0.0:
            raise ValueError("request_timeout_s must be positive")
        if self.stream_chunk < 1:
            raise ValueError("stream_chunk must be at least 1")


class _Pending:
    """One enqueued kNN request and the connection its reply goes to."""

    __slots__ = ("request", "enqueued_at", "connection")

    def __init__(
        self, request: KnnRequest, enqueued_at: float, connection: "_Connection"
    ) -> None:
        self.request = request
        self.enqueued_at = enqueued_at
        self.connection = connection


class _Connection(asyncio.BufferedProtocol):
    """One client connection: frame cutting, inline requests, flow control."""

    def __init__(self, owner: "AsyncQueryServer") -> None:
        self._owner = owner
        self._session = owner.service.session()
        self._read = memoryview(bytearray(1 << 16))
        self._buffer = bytearray()
        self._transport: asyncio.Transport
        #: kNN requests enqueued and not yet released by :meth:`deliver`.
        self._inflight = 0
        #: Answered requests whose slots wait for ``resume_writing``.
        self._held = 0
        self._writing_paused = False
        self._reading_paused = False
        #: The error that ends the connection once ``_inflight`` is 0.
        self._failure: Optional[ErrorReply] = None

    # -- the transport's side ---------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._owner._connections.add(self)
        if OBS.enabled:
            _CONNECTIONS("opened").inc()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._buffer.clear()
        self._session.close()
        self._owner._drop(self)
        if OBS.enabled:
            _CONNECTIONS("closed").inc()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read

    def buffer_updated(self, nbytes: int) -> None:
        self._buffer += self._read[:nbytes]
        self._parse()

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._inflight -= self._held
        self._held = 0
        self._parse()

    # -- the dispatcher's side --------------------------------------------
    def deliver(self, replies: List[Message]) -> None:
        """Write one wave's replies in one write and free their slots."""
        if not self._transport.is_closing():
            self._transport.write(b"".join([_frame(r) for r in replies]))
        if self._writing_paused:
            self._held += len(replies)
        else:
            self._inflight -= len(replies)
            self._parse()

    # -- frames -----------------------------------------------------------
    def _stalled(self) -> bool:
        owner = self._owner
        if len(owner._queue) >= owner.config.queue_capacity:
            owner._waiting.add(self)
            return True
        stalled = self._failure is not None or self._writing_paused
        return stalled or self._inflight >= owner.config.max_inflight

    def _fail(self, request_id: int, exc: ProtocolError) -> None:
        """Stop reading: answer ``exc`` once the earlier requests are, then close."""
        self._buffer.clear()
        self._failure = _error_reply(request_id, exc.code, str(exc))

    def _parse(self) -> None:
        """Handle each whole buffered frame unless stalled; (un)pause reading."""
        buffer, owner = self._buffer, self._owner
        while len(buffer) >= HEADER_SIZE and not self._stalled():
            frame = b""
            try:
                _, length = parse_header(buffer[:HEADER_SIZE])
                end = HEADER_SIZE + length
                if len(buffer) < end:
                    break
                frame = bytes(buffer[:end])
                message = decode_message(frame)
            except ProtocolError as exc:
                self._fail(_request_id(frame), exc)
                break
            del buffer[:end]
            if OBS.enabled:
                _REQUESTS(type(message).__name__).inc()
            if isinstance(message, KnnRequest):
                self._inflight += 1
                owner._enqueue(_Pending(message, owner._loop.time(), self))
                continue
            started = owner._loop.time()
            try:
                reply = self._session.handle(message)
            except ProtocolError as exc:
                # A decoded frame that is not a request has no request id.
                self._fail(0, exc)
                break
            if not self._transport.is_closing():
                self._transport.write(_frame(reply))
            owner._note_latency(owner._loop.time() - started)
        transport = self._transport
        if self._failure is not None:
            if self._inflight == 0 and not transport.is_closing():
                transport.write(encode_message(self._failure))
                transport.close()
        stalled = self._stalled()
        if stalled is not self._reading_paused:
            self._reading_paused = stalled
            (transport.pause_reading if stalled else transport.resume_reading)()


def _request_id(frame: bytes) -> int:
    """The request id of a whole frame that failed to decode: every
    request layout starts with ``>I request_id``.  0 when the header
    itself failed (``frame`` is empty) or the payload is shorter."""
    if len(frame) < HEADER_SIZE + _REQUEST_ID.size:
        return 0
    return _REQUEST_ID.unpack_from(frame, HEADER_SIZE)[0]


def _frame(reply: Message) -> bytes:
    """``reply``'s frame, or, when the wire cannot carry it (too large, a
    payload type without a tag), the frame of its error reply."""
    try:
        return encode_message(reply)
    except ProtocolError as exc:
        request_id = getattr(reply, "request_id", 0)
        return encode_message(_error_reply(request_id, exc.code, str(exc)))


class AsyncQueryServer:
    """Serve a :class:`SpatialDatabaseServer` over TCP."""

    def __init__(
        self,
        server: SpatialDatabaseServer,
        config: ServiceConfig = ServiceConfig(),
    ) -> None:
        self.config = config
        self.service = QueryService(
            server,
            batch_cell_size=config.batch_cell_size,
            stream_chunk=config.stream_chunk,
        )
        self._loop: asyncio.AbstractEventLoop
        self._tcp: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._queue: Deque[_Pending] = deque()
        #: Connections stalled on a full queue, woken by the next wave.
        self._waiting: Set[_Connection] = set()
        self._dispatch_due = False
        #: The held wave, the connections in it, when its hold began and
        #: the handle that ends it (the window's timer or a release).
        self._wave: Optional[List[_Pending]] = None
        self._in_wave: Set[_Connection] = set()
        self._held_since = 0.0
        self._release_handle: Optional[asyncio.Handle] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket."""
        self._loop = asyncio.get_running_loop()
        self._tcp = await self._loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves an ephemeral port)."""
        sockets = getattr(self._tcp, "sockets", None)
        if not sockets:
            raise RuntimeError("server is not started")
        host, port = sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode).

        Raises ``RuntimeError`` when :meth:`start` has not run: the old
        auto-start fallback hid missing-lifecycle bugs in callers, and
        its ``if``/``assert`` pair was dead code on every correct path.
        """
        if self._tcp is None:
            raise RuntimeError("start() not called")
        await self._tcp.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drop queued and held waves, close connections."""
        if self._release_handle is not None:
            self._release_handle.cancel()
        self._wave = None
        self._queue.clear()
        for connection in list(self._connections):
            connection._transport.close()
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
        await asyncio.sleep(0)  # the closed transports' ``connection_lost``

    # ------------------------------------------------------------------
    # batching dispatcher
    # ------------------------------------------------------------------
    def _enqueue(self, item: _Pending) -> None:
        wave = self._wave
        if wave is not None and len(wave) < self.config.max_batch:
            wave.append(item)
            self._in_wave.add(item.connection)
            self._check_hold()
            return
        self._queue.append(item)
        self._note_queue_depth()
        if wave is None and not self._dispatch_due:
            self._dispatch_due = True
            self._loop.call_soon(self._dispatch)

    def _drop(self, connection: _Connection) -> None:
        """Forget a closed connection; a held wave may now be complete."""
        self._connections.discard(connection)
        self._waiting.discard(connection)
        if self._wave is not None:
            self._check_hold()

    def _dispatch(self) -> None:
        """Run waves off the queue until it is empty or one is held."""
        self._dispatch_due = False
        queue, max_batch = self._queue, self.config.max_batch
        while queue and self._wave is None:
            wave = [queue.popleft() for _ in range(min(len(queue), max_batch))]
            for connection in self._waiting:
                self._loop.call_soon(connection._parse)
            self._waiting.clear()
            # Waiting can only pay off by merging traversals, so a wave
            # is held only when it already has two requests in one cell.
            if len(wave) > 1 and self._has_cell_mates(wave):
                if self._hold(wave):
                    return
                self._run(wave, 0.0)
            else:
                self._run(wave, None)

    def _has_cell_mates(self, wave: List[_Pending]) -> bool:
        """Whether two requests of ``wave`` could share a traversal."""
        cell_of = self.service.executor.cell_of
        return len({cell_of(item.request.query) for item in wave}) < len(wave)

    def _hold(self, wave: List[_Pending]) -> bool:
        """Hold ``wave`` unless it is full, has everyone, or is out of time
        (the window runs from its oldest enqueue, ``wave[0]``)."""
        in_wave = {item.connection for item in wave}
        now = self._loop.time()
        remaining = wave[0].enqueued_at + self.config.batch_window_s - now
        if remaining <= 0.0 or self._complete(wave, in_wave):
            return False
        self._wave, self._in_wave, self._held_since = wave, in_wave, now
        self._release_handle = self._loop.call_later(remaining, self._release)
        return True

    def _complete(self, wave: List[_Pending], in_wave: Set[_Connection]) -> bool:
        """Nobody left could join: the wave is full or has every connection."""
        return len(wave) >= self.config.max_batch or self._connections <= in_wave

    def _check_hold(self) -> None:
        """Release the held wave on the next pass if nobody left can join
        (after the connection being parsed has cut all its frames)."""
        assert self._wave is not None and self._release_handle is not None
        if self._complete(self._wave, self._in_wave):
            self._release_handle.cancel()
            self._release_handle = self._loop.call_soon(self._release)

    def _release(self) -> None:
        """End the hold: run the held wave, then what queued behind it."""
        wave = self._wave
        assert wave is not None
        self._wave = None
        self._run(wave, self._loop.time() - self._held_since)
        self._dispatch()

    def _run(self, wave: List[_Pending], hold_s: Optional[float]) -> None:
        """Count the wave (``hold_s`` is ``None`` if it was not held), run it."""
        if OBS.enabled:
            _DISPATCH("immediate" if hold_s is None else "held").inc()
            if hold_s is not None:
                _HOLD_S().observe(hold_s)
        self._note_queue_depth()
        self._execute_batch(wave, self._loop.time())

    def _execute_batch(self, wave: List[_Pending], now: float) -> None:
        """Answer ``wave``; each connection's replies leave in one write."""
        outboxes: Dict[_Connection, List[Message]] = {}
        live: List[_Pending] = []
        for item in wave:
            if now - item.enqueued_at > self.config.request_timeout_s:
                if OBS.enabled:
                    _TIMEOUTS().inc()
                reply = ErrorReply(item.request.request_id, ErrorCode.TIMEOUT, _STALE)
                outboxes.setdefault(item.connection, []).append(reply)
            else:
                live.append(item)
        if live:
            answers: Sequence[Message]
            try:
                answers = self.service.execute_knn_batch([i.request for i in live])
            except (ProtocolError, ValueError, ArithmeticError) as exc:
                answers = [
                    _error_reply(item.request.request_id, ErrorCode.INTERNAL, str(exc))
                    for item in live
                ]
            else:
                if OBS.enabled:
                    done = self._loop.time()
                    for item in live:
                        self._note_latency(done - item.enqueued_at)
            for item, answer in zip(live, answers):
                outboxes.setdefault(item.connection, []).append(answer)
        for connection, replies in outboxes.items():
            connection.deliver(replies)

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def _note_queue_depth(self) -> None:
        if OBS.enabled:
            _QUEUE_DEPTH().set(float(len(self._queue)))

    def _note_latency(self, seconds: float) -> None:
        if OBS.enabled:
            _REQUEST_LATENCY_S().observe(seconds)


class BackgroundServer:
    """Run an :class:`AsyncQueryServer` on a daemon thread.

    Context manager for synchronous callers (tests, the ``repro-serve``
    self-test, benchmarks)::

        with BackgroundServer(server) as running:
            transport = TcpTransport(*running.address)

    The event loop lives entirely on the background thread; ``__exit__``
    signals it to stop and joins the thread.
    """

    def __init__(
        self,
        server: SpatialDatabaseServer,
        config: ServiceConfig = ServiceConfig(),
    ) -> None:
        self._server = server
        self._config = config
        self._ready = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` once the server is up."""
        if self._address is None:
            raise RuntimeError("server is not running")
        return self._address

    def start(self) -> "BackgroundServer":
        """Start the thread and block until the socket is bound."""
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    def stop(self) -> None:
        """Signal the loop to shut down and join the thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # The fields below are written on the service thread strictly before
    # ``self._ready.set()`` and read by the caller thread strictly after
    # ``self._ready.wait()``: the Event provides the happens-before edge,
    # so they need no lock.
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        running = AsyncQueryServer(self._server, self._config)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await running.start()
        self._address = running.address
        self._ready.set()
        await self._stop.wait()
        await running.stop()

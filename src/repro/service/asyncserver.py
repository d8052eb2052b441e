"""The asyncio TCP query server.

One event loop, one :class:`~repro.service.engine.QueryService`, many
connections.  kNN requests do not execute inline: they are enqueued to
the *batching dispatcher*, which collects whatever is in flight across
all connections and hands the wave to the
:class:`~repro.service.batching.BatchExecutor` -- this is where
co-located concurrent clients get merged into shared traversals.  A wave
that already holds two requests in one batching cell is kept open so
more cell-mates can join, until the first of: it reaches ``max_batch``,
every open connection has a request in it (nobody is left who could
join), or ``batch_window_s`` has passed since its oldest enqueue.  The
window is therefore the longest a wave waits for a connection that is
not yet in it; a connection that is open but idle keeps co-located
waves held that long.  A wave without cell-mates (a lone request, or
scattered ones) has nothing to gain from waiting and is dispatched at
once.  A wave's replies to one connection leave in one write.
Everything else (range/window queries, stream operations) is cheap and
session-stateful, so it runs inline on the connection task.

Flow control, per the issue's deployment knobs:

* **per-connection backpressure** -- at most ``max_inflight`` queued
  kNN requests per connection; the reader coroutine stops reading from
  the socket until replies drain, so a flooding client throttles itself
  (TCP does the rest) without starving other connections;
* **request timeouts** -- a queued request older than
  ``request_timeout_s`` is answered with a ``TIMEOUT`` error instead of
  being executed (counted on ``service.timeouts``);
* **queue depth** -- the global dispatcher queue depth is exported as
  the ``service.queue_depth`` gauge.

Malformed framing (bad magic, unknown version, oversized declared
payload, undecodable message) is unrecoverable on a byte stream: the
server replies with a ``MALFORMED``/``OVERSIZED`` error and closes the
connection.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from repro.analysis.runtime import named_async_lock
from repro.core.server import SpatialDatabaseServer
from repro.obs import (
    DEFAULT_TIME_BUCKETS_S,
    OBS,
    Counter,
    Gauge,
    Histogram,
    Instrument,
)
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


class _Pending:
    """One enqueued kNN request plus everything needed to answer it.

    ``connection`` identifies the connection that enqueued it: a member
    of ``AsyncQueryServer._connections``, compared and never used.
    """

    __slots__ = ("request", "enqueued_at", "respond", "release", "connection")

    def __init__(
        self,
        request: KnnRequest,
        enqueued_at: float,
        respond: Callable[[Message], "asyncio.Future[None]"],
        release: Callable[[], None],
        connection: object = None,
    ) -> None:
        self.request = request
        self.enqueued_at = enqueued_at
        self.respond = respond
        self.release = release
        self.connection = connection


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
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue(
            maxsize=config.queue_capacity
        )
        self._tcp: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._connections: Set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher."""
        self._tcp = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
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
        """Stop accepting, cancel the dispatcher, close connections."""
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for writer in list(self._connections):
            writer.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = self.service.session()
        send_lock = named_async_lock("AsyncQueryServer.send_lock")
        inflight = asyncio.Semaphore(self.config.max_inflight)
        loop = asyncio.get_running_loop()
        self._connections.add(writer)
        if OBS.enabled:
            _CONNECTIONS("opened").inc()

        async def send(*messages: Message) -> None:
            frames = b"".join([encode_message(message) for message in messages])
            try:
                async with send_lock:
                    writer.write(frames)
                    await writer.drain()
            except (ConnectionError, OSError):
                # The client went away; the reader loop will see EOF.
                pass

        # Dispatcher replies not yet handed to ``send``, and the write
        # they are waiting for.
        outbox: List[Message] = []
        written: "asyncio.Future[None]"

        async def flush() -> None:
            replies = outbox[:]
            outbox.clear()
            await send(*replies)

        def respond(message: Message) -> "asyncio.Future[None]":
            """Queue a dispatcher reply; the future is its write.

            ``_execute_batch`` finishes a wave without awaiting, so all
            of the wave's replies to this connection are queued before
            ``flush`` first runs and leave in one write.
            """
            nonlocal written
            if not outbox:
                written = asyncio.ensure_future(flush())
            outbox.append(message)
            return written

        try:
            while True:
                try:
                    header = await reader.readexactly(HEADER_SIZE)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    _, length = parse_header(header)
                    payload = await reader.readexactly(length)
                    message = decode_message(header + payload)
                except ProtocolError as exc:
                    await send(_error_reply(0, exc.code, str(exc)))
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if OBS.enabled:
                    _REQUESTS(type(message).__name__).inc()
                if isinstance(message, KnnRequest):
                    # Backpressure: stop reading this socket until the
                    # connection's in-flight window has room again.
                    await inflight.acquire()
                    pending = _Pending(
                        message,
                        loop.time(),
                        respond,
                        inflight.release,
                        writer,
                    )
                    await self._queue.put(pending)
                    self._note_queue_depth()
                else:
                    started = loop.time()
                    reply = session.handle(message)
                    await send(reply)
                    self._note_latency(loop.time() - started)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            session.close()
            self._connections.discard(writer)
            if OBS.enabled:
                _CONNECTIONS("closed").inc()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # batching dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            self._sweep(batch)
            # Waiting can only pay off by merging traversals, so a wave
            # is held only when it already has two requests in one cell.
            hold_s: Optional[float] = None
            if self._has_cell_mates(batch):
                hold_s = await self._hold(batch)
            self._note_dispatch(hold_s)
            self._note_queue_depth()
            await self._execute_batch(batch, loop.time())

    def _sweep(self, batch: List[_Pending]) -> None:
        """Move what is already queued into ``batch``, up to ``max_batch``."""
        while len(batch) < self.config.max_batch and not self._queue.empty():
            batch.append(self._queue.get_nowait())

    def _has_cell_mates(self, batch: List[_Pending]) -> bool:
        """Whether two requests of ``batch`` could share a traversal."""
        cell_of = self.service.executor.cell_of
        return len({cell_of(item.request.query) for item in batch}) < len(batch)

    async def _hold(self, batch: List[_Pending]) -> float:
        """Keep ``batch`` open while someone could still join it; return the wait.

        The hold ends at the first of: the wave reaches ``max_batch``;
        every open connection has a request in the wave, so nobody who
        could add a cell-mate is left outside it; the window has passed.
        The window runs from the oldest request's enqueue (the queue is
        FIFO, so that is ``batch[0]``): time spent queued behind a
        running batch counts toward the window instead of adding to it.

        Open connections are looked at when a request arrives, not when
        one closes: a wave waiting only for a client that has just gone
        is let go by the window, not woken.  So is a wave waiting for a
        connection that is open and idle.
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        remaining = (
            batch[0].enqueued_at + self.config.batch_window_s - started
        )
        if remaining > 0.0:
            try:
                await asyncio.wait_for(self._fill(batch), remaining)
            except asyncio.TimeoutError:
                pass
        self._sweep(batch)
        return loop.time() - started

    async def _fill(self, batch: List[_Pending]) -> None:
        """Append arrivals to ``batch`` until it is full or has everyone."""
        in_wave: Set[object] = {item.connection for item in batch}
        while (
            len(batch) < self.config.max_batch
            and not self._connections <= in_wave
        ):
            item = await self._queue.get()
            batch.append(item)
            in_wave.add(item.connection)

    async def _execute_batch(
        self, batch: List[_Pending], now: float
    ) -> None:
        live: List[_Pending] = []
        for item in batch:
            if now - item.enqueued_at > self.config.request_timeout_s:
                if OBS.enabled:
                    _TIMEOUTS().inc()
                self._finish(
                    item,
                    ErrorReply(
                        item.request.request_id,
                        ErrorCode.TIMEOUT,
                        "request timed out in the service queue",
                    ),
                )
            else:
                live.append(item)
        if not live:
            return
        try:
            answers = self.service.execute_knn_batch(
                [item.request for item in live]
            )
        except (ProtocolError, ValueError, ArithmeticError) as exc:
            for item in live:
                self._finish(
                    item,
                    _error_reply(
                        item.request.request_id, ErrorCode.INTERNAL, str(exc)
                    ),
                )
            return
        loop = asyncio.get_running_loop()
        for item, answer in zip(live, answers):
            self._note_latency(loop.time() - item.enqueued_at)
            self._finish(item, answer)

    def _finish(self, item: _Pending, reply: Message) -> None:
        future = item.respond(reply)
        future.add_done_callback(lambda _f: item.release())

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def _note_queue_depth(self) -> None:
        if OBS.enabled:
            _QUEUE_DEPTH().set(float(self._queue.qsize()))

    def _note_dispatch(self, hold_s: Optional[float]) -> None:
        """Count one wave; ``hold_s`` is ``None`` when it was not held."""
        if OBS.enabled:
            _DISPATCH("immediate" if hold_s is None else "held").inc()
            if hold_s is not None:
                _HOLD_S().observe(hold_s)

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
    # hence the ``guarded-by(handshake)`` annotations.
    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._error = exc  # repro: guarded-by(handshake)
            self._ready.set()

    async def _main(self) -> None:
        running = AsyncQueryServer(self._server, self._config)
        self._loop = asyncio.get_running_loop()  # repro: guarded-by(handshake)
        self._stop = asyncio.Event()  # repro: guarded-by(handshake)
        await running.start()
        self._address = running.address  # repro: guarded-by(handshake)
        self._ready.set()
        await self._stop.wait()
        await running.stop()

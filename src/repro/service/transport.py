"""Transports: how encoded frames travel between client and service.

Two implementations of the same :class:`QueryTransport` protocol:

* :class:`LoopbackTransport` -- in-process.  Frames still pass through
  the full encode -> decode -> execute -> encode -> decode pipeline, so
  every code path the TCP transport exercises (validation included) is
  exercised here too; the only thing missing is the socket.  This is
  what the simulator and the difftest oracles use.
* :class:`TcpTransport` -- a blocking TCP client for the asyncio server,
  with a connect-retry loop (counted via ``service.client_retries``), a
  per-request timeout, and reconnect-on-whole-frame-failure semantics
  (counted via ``service.client_resends``).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.obs import OBS, Counter, Instrument
from repro.service.protocol import (
    HEADER_SIZE,
    ErrorCode,
    ProtocolError,
    decode_message,
    encode_message,
    parse_header,
)

if TYPE_CHECKING:
    from repro.service.engine import QueryService, ServiceSession

__all__ = ["LoopbackTransport", "QueryTransport", "TcpTransport"]

_CLIENT_RETRIES = Instrument(Counter, "service.client_retries")
_CLIENT_RESENDS = Instrument(Counter, "service.client_resends")


@runtime_checkable
class QueryTransport(Protocol):
    """One request frame in, one reply frame out."""

    def request(self, frame: bytes) -> bytes:
        """Send a complete frame; block until the reply frame arrives."""
        ...

    def close(self) -> None:
        """Release the transport's resources; later requests raise."""
        ...


class LoopbackTransport:
    """In-process transport driving a private :class:`ServiceSession`."""

    def __init__(self, service: "QueryService") -> None:
        self._session: "ServiceSession" = service.session()
        self._closed = False

    def request(self, frame: bytes) -> bytes:
        """Decode, execute and re-encode -- the wire path minus the wire."""
        if self._closed:
            raise ConnectionError("transport is closed")
        message = decode_message(frame)
        reply = self._session.handle(message)
        return encode_message(reply)

    def close(self) -> None:
        """Close the underlying session (folds open streams); final."""
        self._closed = True
        self._session.close()


class _WholeFrameFailure(OSError):
    """A send failed before any byte of the frame reached the socket."""


def _send_frame(sock: socket.socket, frame: bytes) -> None:
    """Send a whole frame, distinguishing zero-byte failure from partial.

    ``sendall`` cannot tell its caller whether any bytes left before an
    error, and the resend decision hinges on exactly that: resending
    after a *partial* send could deliver a duplicated frame once the
    server reassembles both halves.  So the frame is sent manually and
    an error with zero bytes out is re-raised as
    :class:`_WholeFrameFailure`.
    """
    view = memoryview(frame)
    offset = 0
    while offset < len(view):
        try:
            sent = sock.send(view[offset:])
        except OSError as exc:
            if offset == 0:
                raise _WholeFrameFailure(*exc.args) from exc
            raise
        if sent == 0:
            raise ProtocolError(
                "connection closed mid-frame", ErrorCode.MALFORMED
            )
        offset += sent


class TcpTransport:
    """Blocking TCP client transport for :class:`AsyncQueryServer`.

    ``timeout_s`` bounds each send/receive; ``connect_retries`` retries
    the initial connection (the server may still be binding when a
    client worker starts), sleeping ``retry_delay_s`` between attempts.
    Thread-safe: a lock serializes request/reply exchanges, so one
    transport may back several workers (they just will not pipeline).

    Retry semantics: when a send fails before *any* byte of the frame
    reached the wire (typically the server closed the idle connection),
    the transport reconnects and resends once -- the server cannot have
    seen a partial frame, so the resend cannot duplicate a request.  A
    failure mid-frame is raised to the caller instead: the server may
    hold the sent prefix, and resending the whole frame could execute
    the request twice.  ``close`` is final: later requests raise
    ``ConnectionError`` without dialing.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        connect_retries: int = 3,
        retry_delay_s: float = 0.05,
    ) -> None:
        self._lock = threading.Lock()
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._connect_retries = connect_retries
        self._retry_delay_s = retry_delay_s
        self._closed = False
        self._sock = self._connect()  # replaced only under ``_lock``

    def _connect(self) -> socket.socket:
        """Dial the server, retrying while it may still be binding."""
        last_error: Exception = OSError("no connection attempt made")
        for attempt in range(max(1, self._connect_retries)):
            if attempt > 0:
                if OBS.enabled:
                    _CLIENT_RETRIES().inc()
                time.sleep(self._retry_delay_s)
            try:
                sock = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout_s
                )
            except OSError as exc:
                last_error = exc
            else:
                sock.settimeout(self._timeout_s)
                return sock
        raise last_error

    def request(self, frame: bytes) -> bytes:
        """One request/reply exchange over the socket."""
        with self._lock:
            if self._closed:
                raise ConnectionError("transport is closed")
            try:
                _send_frame(self._sock, frame)
            except _WholeFrameFailure:
                # Nothing reached the wire: reconnect and resend once.
                self._close_socket()
                self._sock = self._connect()
                if OBS.enabled:
                    _CLIENT_RESENDS().inc()
                _send_frame(self._sock, frame)
            header = _recv_exactly(self._sock, HEADER_SIZE)
            _, length = parse_header(header)
            return header + _recv_exactly(self._sock, length)

    def _close_socket(self) -> None:
        """Best-effort shutdown + close of the current socket."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def close(self) -> None:
        """Shut the connection down for good."""
        with self._lock:
            self._closed = True
            self._close_socket()


def _recv_exactly(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise on early EOF."""
    chunks = []
    remaining = size
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                "connection closed mid-frame", ErrorCode.MALFORMED
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)

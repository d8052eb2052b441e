"""Tests for repro.service.asyncserver: TCP serving, batching, flow control.

Real sockets on an ephemeral loopback port via :class:`BackgroundServer`
(the same harness the ``repro-serve --selftest`` CI job uses), plus
direct event-loop tests that drive the dispatcher and the connections'
flow control without waiting on a wall clock.
"""

import asyncio
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.core.server import SpatialDatabaseServer
from repro.obs import DEFAULT_TIME_BUCKETS_S, OBS, MetricsRegistry, observed
from repro.service.asyncserver import (
    AsyncQueryServer,
    BackgroundServer,
    ServiceConfig,
    _Pending,
)
from repro.service.client import ServiceClient
from repro.service.protocol import (
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    ErrorCode,
    ErrorReply,
    KnnRequest,
    MessageType,
    StreamClose,
    StreamOpen,
    StreamPull,
    decode_message,
    encode_message,
)
from repro.service.engine import QueryService
from repro.service.transport import LoopbackTransport, TcpTransport
from repro.testing.invariants import verify_conservation


def make_pois(count=300, seed=0, extent=4.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, extent, size=(count, 2))
    return [(Point(float(x), float(y)), f"poi-{i}") for i, (x, y) in enumerate(coords)]


def make_server(pois):
    return SpatialDatabaseServer.from_points(pois)


def answer_key(neighbors):
    return tuple((n.point.x, n.point.y, n.payload, n.distance) for n in neighbors)


@pytest.fixture()
def running_server():
    pois = make_pois()
    with BackgroundServer(make_server(pois), ServiceConfig()) as running:
        yield running, pois


class TestTcpServing:
    def test_knn_over_tcp_matches_direct(self, running_server):
        running, pois = running_server
        reference = make_server(pois)
        client = ServiceClient(TcpTransport(*running.address))
        try:
            for query in (Point(1.0, 1.0), Point(3.2, 0.4), Point(2.0, 3.9)):
                answer = client.knn_query_detailed(query, 5)
                expected = reference.knn_query_detailed(query, 5)
                assert answer_key(answer.neighbors) == answer_key(expected.neighbors)
                assert answer.pages == expected.pages
        finally:
            client.close()

    def test_dropped_connection_folds_its_open_stream(self):
        """A client that vanishes mid-stream loses the server no page.

        The stream is closed by the session close on the connection-drop
        path: it joins the counter's history as exactly one entry, and
        the history sums to its totals once the server has stopped.
        """
        server = make_server(make_pois())
        history = server.counter.history
        with BackgroundServer(server, ServiceConfig()) as running:
            transport = TcpTransport(*running.address)
            stream = ServiceClient(transport).incremental_query(Point(1.0, 1.0))
            next(stream)  # open + one pulled chunk
            assert history == []
            transport.close()  # no StreamClose: the socket just goes
        del stream
        assert len(history) == 1
        assert verify_conservation(server.counter) == []

    @pytest.mark.parametrize("kind", ["loopback", "tcp"])
    def test_a_closed_transport_stays_closed(self, kind, monkeypatch):
        """After ``close`` a request raises instead of redialing.

        The stream's finalizer still sends ``StreamClose`` after the
        client closed; it must fail quietly, not open a new session
        (one per TCP connection or loopback client).
        """
        sessions = []
        real_session = QueryService.session

        def counted(service):
            sessions.append(service)
            return real_session(service)

        monkeypatch.setattr(QueryService, "session", counted)
        server = make_server(make_pois())
        with BackgroundServer(server, ServiceConfig()) as running:

            def open_client():
                if kind == "tcp":
                    return ServiceClient(TcpTransport(*running.address))
                return ServiceClient(LoopbackTransport(QueryService(server)))

            client = open_client()
            client.close()
            with pytest.raises(ConnectionError):
                client.knn_query(Point(1.0, 1.0), 3)

            client = open_client()
            stream = client.incremental_query(Point(1.0, 1.0))
            next(stream)
            client.close()
            opened = len(sessions)
            stream.close()  # the finalizer's StreamClose meets a closed transport
            assert len(sessions) == opened == 2

    def test_concurrent_clients_get_exact_answers(self, running_server):
        from concurrent.futures import ThreadPoolExecutor

        running, pois = running_server
        reference = make_server(pois)
        rng = np.random.default_rng(7)
        # A tight cluster: concurrent requests should merge into shared
        # traversals, and the answers must still be exact.
        points = [
            Point(2.01 + float(rng.uniform(0, 0.05)), 2.01 + float(rng.uniform(0, 0.05)))
            for _ in range(6)
        ]
        expected = {i: answer_key(reference.knn_query(p, 4)) for i, p in enumerate(points)}

        def worker():
            client = ServiceClient(TcpTransport(*running.address))
            try:
                return [
                    (i, answer_key(client.knn_query_detailed(p, 4).neighbors))
                    for i, p in enumerate(points)
                ]
            finally:
                client.close()

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result() for f in [pool.submit(worker) for _ in range(4)]]
        for result in results:
            for index, key in result:
                assert key == expected[index]

    def test_backpressure_window_of_one_stays_correct(self, running_server):
        running, pois = running_server
        reference = make_server(pois)
        config = ServiceConfig(max_inflight=1, queue_capacity=2)
        with BackgroundServer(make_server(pois), config) as tight:
            client = ServiceClient(TcpTransport(*tight.address))
            try:
                for x in np.linspace(0.5, 3.5, 8):
                    query = Point(float(x), 2.0)
                    answer = client.knn_query_detailed(query, 3)
                    expected = reference.knn_query_detailed(query, 3)
                    assert answer_key(answer.neighbors) == answer_key(expected.neighbors)
            finally:
                client.close()

    def test_malformed_frame_gets_error_and_close(self, running_server):
        running, _ = running_server
        with socket.create_connection(running.address, timeout=5.0) as sock:
            sock.sendall(b"XX\x01\x01\x00\x00\x00\x00")
            reply = _read_frame(sock)
            assert isinstance(reply, ErrorReply)
            assert reply.code is ErrorCode.MALFORMED
            # The server closes the byte stream: resyncing is impossible.
            sock.settimeout(5.0)
            assert sock.recv(1) == b""

    def test_oversized_declared_payload_rejected(self, running_server):
        running, _ = running_server
        header = struct.pack(
            ">2sBBI", MAGIC, PROTOCOL_VERSION, int(MessageType.KNN_REQUEST), 1 << 30
        )
        with socket.create_connection(running.address, timeout=5.0) as sock:
            sock.sendall(header)
            reply = _read_frame(sock)
            assert isinstance(reply, ErrorReply)
            assert reply.code is ErrorCode.OVERSIZED
            sock.settimeout(5.0)
            assert sock.recv(1) == b""

    def test_zero_k_is_malformed_and_closes_the_connection(self, running_server):
        # The decoder rejects the value before any session sees it, so the
        # stream is dropped; the header parsed and the whole frame arrived,
        # so the reply still carries the payload's leading request id.
        running, _ = running_server
        payload = struct.pack(">IddHddI", 42, 1.0, 1.0, 0, 0.0, 1.0, 0)
        header = struct.pack(
            ">2sBBI",
            MAGIC,
            PROTOCOL_VERSION,
            int(MessageType.KNN_REQUEST),
            len(payload),
        )
        with socket.create_connection(running.address, timeout=5.0) as sock:
            sock.sendall(header + payload)
            reply = _read_frame(sock)
            assert isinstance(reply, ErrorReply)
            assert reply.code is ErrorCode.MALFORMED
            assert reply.request_id == 42
            sock.settimeout(5.0)
            assert sock.recv(1) == b""

    @pytest.mark.parametrize(
        "header_fields, payload",
        [
            ((b"XX", PROTOCOL_VERSION), struct.pack(">Iddd", 42, 1.0, 1.0, 1.0)),
            ((MAGIC, PROTOCOL_VERSION), b"\x00\x2a"),
        ],
        ids=["bad-header", "payload-shorter-than-an-id"],
    )
    def test_frame_without_a_readable_id_gets_request_id_0(
        self, running_server, header_fields, payload
    ):
        running, _ = running_server
        header = struct.pack(
            ">2sBBI", *header_fields, int(MessageType.KNN_REQUEST), len(payload)
        )
        with socket.create_connection(running.address, timeout=5.0) as sock:
            sock.sendall(header + payload)
            reply = _read_frame(sock)
            assert isinstance(reply, ErrorReply)
            assert reply.code is ErrorCode.MALFORMED
            assert reply.request_id == 0
            sock.settimeout(5.0)
            assert sock.recv(1) == b""

    @pytest.mark.parametrize("retired", [0x02, 0x03])
    def test_a_retired_type_is_answered_like_an_unassigned_one(
        self, running_server, retired
    ):
        """Range (0x02) and window (0x03) requests are retired: a frame of
        either type gets what an unassigned type (0x07) gets, an
        UNSUPPORTED error, and then the connection closes."""
        running, _ = running_server

        def exchange(mtype):
            payload = struct.pack(">Iddd", 42, 1.0, 1.0, 1.0)
            header = struct.pack(">2sBBI", MAGIC, PROTOCOL_VERSION, mtype, len(payload))
            with socket.create_connection(running.address, timeout=5.0) as sock:
                sock.sendall(header + payload)
                reply = _read_frame(sock)
                sock.settimeout(5.0)
                closed = sock.recv(1) == b""
            assert isinstance(reply, ErrorReply)
            assert reply.message == f"unknown message type: {mtype}"
            return reply.request_id, reply.code, closed

        assert exchange(retired) == exchange(0x07)
        assert exchange(retired)[1:] == (ErrorCode.UNSUPPORTED, True)

    def test_unknown_stream_pull_is_a_bad_stream_error(self, running_server):
        from repro.service.protocol import StreamPull

        running, _ = running_server
        transport = TcpTransport(*running.address)
        try:
            reply = decode_message(
                transport.request(encode_message(StreamPull(9, 777, 5)))
            )
            assert isinstance(reply, ErrorReply)
            assert reply.code is ErrorCode.BAD_STREAM
            assert reply.request_id == 9
        finally:
            transport.close()


@pytest.fixture(scope="module")
def framing_server():
    with BackgroundServer(make_server(make_pois()), ServiceConfig()) as running:
        yield running


_FRAME_KINDS = ("knn", "open", "pull", "close")


def _mixed_frames(kinds):
    """One request per kind, ids from 1; every kNN point in a cell of its own.

    A kNN request has no cell-mate, so it runs in a wave of one however
    the bytes arrive; stream requests name the latest stream opened.
    """
    frames, knn_ids, opened = [], set(), 0
    for request_id, kind in enumerate(kinds, start=1):
        here = Point(0.125 + 0.25 * (request_id % 16), 0.4 + 0.2 * (request_id % 3))
        if kind == "knn":
            knn_ids.add(request_id)
            message = KnnRequest(request_id, here, 4)
        elif kind == "open":
            opened += 1
            message = StreamOpen(request_id, here)
        elif kind == "pull":
            message = StreamPull(request_id, max(opened, 1), 3)
        else:
            message = StreamClose(request_id, max(opened, 1))
        frames.append(encode_message(message))
    return b"".join(frames), len(frames), knn_ids


def _exchange(address, data, count, chunks):
    """Send ``data`` cut into ``chunks`` sizes (cycled); read ``count`` replies."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        offset, index = 0, 0
        while offset < len(data):
            size = chunks[index % len(chunks)]
            sock.sendall(data[offset : offset + size])
            offset += size
            index += 1
        return [_read_frame(sock) for _ in range(count)]


class TestFraming:
    """The hand-rolled frame cutter: any split of the bytes is one stream."""

    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(_FRAME_KINDS), min_size=1, max_size=12),
        chunks=st.lists(st.integers(1, 64), min_size=1, max_size=8),
    )
    def test_any_chunking_gets_the_replies_of_one_sendall(
        self, framing_server, kinds, chunks
    ):
        data, count, knn_ids = _mixed_frames(kinds)
        whole = _exchange(framing_server.address, data, count, [len(data)])
        split = _exchange(framing_server.address, data, count, chunks)
        assert len(whole) == len(split) == count
        by_id = {reply.request_id: reply for reply in whole}
        assert {reply.request_id: reply for reply in split} == by_id
        assert sorted(by_id) == list(range(1, count + 1))
        # kNN answers leave in request order, and so do the replies the
        # connection answers inline; how the two interleave depends on
        # when the dispatcher runs.
        for same_kind in (lambda r: r in knn_ids, lambda r: r not in knn_ids):
            assert [r.request_id for r in split if same_kind(r.request_id)] == [
                r.request_id for r in whole if same_kind(r.request_id)
            ]
        assert all(by_id[i].batch_size == 1 for i in knn_ids)

    def test_malformed_header_after_two_good_frames(self, framing_server):
        """Both requests are answered, then the error, then EOF."""
        good = encode_message(KnnRequest(1, Point(1.0, 1.0), 3)) + encode_message(
            StreamOpen(2, Point(2.0, 2.0))
        )
        with socket.create_connection(framing_server.address, timeout=5.0) as sock:
            sock.sendall(good + b"XX\x01\x01\x00\x00\x00\x00")
            replies = [_read_frame(sock) for _ in range(3)]
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
        assert sorted(reply.request_id for reply in replies[:2]) == [1, 2]
        assert not any(isinstance(reply, ErrorReply) for reply in replies[:2])
        assert isinstance(replies[2], ErrorReply)
        assert replies[2].code is ErrorCode.MALFORMED

    def test_a_frame_that_is_not_a_request_is_unsupported(self, framing_server):
        """A reply sent to the server decodes, but nothing can answer it."""
        with socket.create_connection(framing_server.address, timeout=5.0) as sock:
            sock.sendall(encode_message(ErrorReply(5, ErrorCode.INTERNAL, "?")))
            reply = _read_frame(sock)
            sock.settimeout(5.0)
            assert sock.recv(1) == b""
        assert isinstance(reply, ErrorReply)
        assert (reply.request_id, reply.code) == (0, ErrorCode.UNSUPPORTED)


def _read_frame(sock):
    header = _read_exactly(sock, HEADER_SIZE)
    _, _, _, length = struct.unpack(">2sBBI", header)
    return decode_message(header + _read_exactly(sock, length))


def _read_exactly(sock, count):
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise AssertionError("connection closed mid-frame")
        data += chunk
    return data


class _Sink:
    """A stand-in connection: keeps what the dispatcher sends it."""

    def __init__(self, on_deliver=None):
        self.replies = []
        self._on_deliver = on_deliver

    def deliver(self, replies):
        self.replies.extend(replies)
        if self._on_deliver is not None:
            self._on_deliver(replies)


class TestTimeouts:
    def test_stale_requests_answered_with_timeout_error(self):
        """A request older than ``request_timeout_s`` is never executed."""
        pois = make_pois(seed=2)

        async def scenario():
            running = AsyncQueryServer(
                make_server(pois), ServiceConfig(request_timeout_s=0.01)
            )
            loop = running._loop = asyncio.get_running_loop()
            sink = _Sink()
            stale = _Pending(KnnRequest(41, Point(1.0, 1.0), 3), loop.time() - 1.0, sink)
            fresh = _Pending(KnnRequest(42, Point(1.0, 1.0), 3), loop.time(), sink)
            running._execute_batch([stale, fresh], loop.time())
            return sink.replies

        replies = asyncio.run(scenario())
        assert len(replies) == 2
        by_id = {reply.request_id: reply for reply in replies}
        assert isinstance(by_id[41], ErrorReply)
        assert by_id[41].code is ErrorCode.TIMEOUT
        assert not isinstance(by_id[42], ErrorReply)
        assert len(by_id[42].neighbors) == 3


# One batching cell of the default 0.25 grid, and four cells far apart.
COLOCATED = [Point(2.01 + 0.02 * i, 2.03 + 0.01 * i) for i in range(8)]
SCATTERED = [Point(0.6, 0.6), Point(1.6, 0.6), Point(0.6, 2.6), Point(3.1, 3.1)]


def _send_burst(sock, first_id, points, k=5):
    """Pipeline one request per point in a single write."""
    sock.sendall(
        b"".join(
            encode_message(KnnRequest(first_id + i, point, k))
            for i, point in enumerate(points)
        )
    )


def _read_replies(sock, count):
    return {reply.request_id: reply for reply in (_read_frame(sock) for _ in range(count))}


def _connect(running, count):
    """Open ``count`` sockets the server has registered as connections.

    ``create_connection`` returns before the server's handler has run,
    so each socket makes one round trip (a lone request is never held).
    """
    sockets = []
    for index in range(count):
        sock = socket.create_connection(running.address, timeout=10.0)
        sockets.append(sock)
        _send_burst(sock, 900 + index, SCATTERED[:1])
        _read_replies(sock, 1)
    return sockets


def _two_bursts(config, idle=0):
    """A co-located burst on each of two sockets, ``idle`` more left silent.

    Returns the eight replies by id and the seconds they took.
    """
    with BackgroundServer(make_server(make_pois()), config) as running:
        sockets = _connect(running, 2 + idle)
        try:
            first, second = sockets[:2]
            started = time.monotonic()
            _send_burst(first, 1, COLOCATED[:4])
            _send_burst(second, 5, COLOCATED[4:])
            replies = {**_read_replies(first, 4), **_read_replies(second, 4)}
            elapsed = time.monotonic() - started
        finally:
            for sock in sockets:
                sock.close()
    return replies, elapsed


class TestDispatchDecision:
    """A wave waits only if it holds cell-mates, and only for someone.

    The 5 s windows below are never waited for: a test that takes a
    second has found a wave held for nothing.
    """

    def test_lone_request_is_not_held(self):
        pois = make_pois()
        config = ServiceConfig(batch_window_s=5.0)
        with BackgroundServer(make_server(pois), config) as running:
            client = ServiceClient(TcpTransport(*running.address))
            try:
                started = time.monotonic()
                answer = client.knn_query_detailed(Point(1.0, 1.0), 5)
                elapsed = time.monotonic() - started
            finally:
                client.close()
        assert elapsed < 1.0
        assert answer.batch_size == 1
        expected = make_server(pois).knn_query_detailed(Point(1.0, 1.0), 5)
        assert answer_key(answer.neighbors) == answer_key(expected.neighbors)

    def test_scattered_burst_is_not_held(self):
        config = ServiceConfig(batch_window_s=5.0)
        with BackgroundServer(make_server(make_pois()), config) as running:
            with socket.create_connection(running.address, timeout=10.0) as sock:
                started = time.monotonic()
                _send_burst(sock, 1, SCATTERED)
                replies = _read_replies(sock, len(SCATTERED))
                elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert sorted(replies) == [1, 2, 3, 4]
        assert [replies[i].batch_size for i in sorted(replies)] == [1, 1, 1, 1]

    def test_colocated_bursts_on_two_sockets_share_one_traversal(self):
        pois = make_pois()
        reference = make_server(pois)
        with BackgroundServer(make_server(pois), ServiceConfig()) as running:
            first, second = _connect(running, 2)
            with first, second:
                _send_burst(first, 1, COLOCATED[:4])
                _send_burst(second, 5, COLOCATED[4:])
                replies = {**_read_replies(first, 4), **_read_replies(second, 4)}
        assert sorted(replies) == list(range(1, 9))
        for request_id, point in enumerate(COLOCATED, start=1):
            reply = replies[request_id]
            assert reply.batch_size == 8
            expected = reference.knn_query_detailed(point, 5)
            assert answer_key(reply.neighbors) == answer_key(expected.neighbors)

    def test_one_socket_is_not_held_for_a_client_that_does_not_exist(self):
        config = ServiceConfig(batch_window_s=5.0)
        with BackgroundServer(make_server(make_pois()), config) as running:
            with socket.create_connection(running.address, timeout=10.0) as sock:
                started = time.monotonic()
                _send_burst(sock, 1, COLOCATED[:4])
                replies = [_read_frame(sock) for _ in range(4)]
                elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert [reply.request_id for reply in replies] == [1, 2, 3, 4]
        assert [reply.batch_size for reply in replies] == [4, 4, 4, 4]

    def test_hold_ends_once_every_connection_is_in_the_wave(self):
        replies, elapsed = _two_bursts(ServiceConfig(batch_window_s=5.0))
        assert elapsed < 1.0
        assert sorted(replies) == list(range(1, 9))
        assert {reply.batch_size for reply in replies.values()} == {8}

    def test_idle_connection_keeps_the_wave_held_until_the_window(self):
        """The stated limit: someone who could still join never does."""
        replies, elapsed = _two_bursts(ServiceConfig(batch_window_s=0.2), idle=1)
        assert 0.2 <= elapsed < 2.0
        assert {reply.batch_size for reply in replies.values()} == {8}

    def test_max_batch_ends_a_hold_an_idle_connection_keeps_open(self):
        config = ServiceConfig(batch_window_s=5.0, max_batch=8)
        replies, elapsed = _two_bursts(config, idle=1)
        assert elapsed < 1.0
        assert {reply.batch_size for reply in replies.values()} == {8}

    def test_connection_closing_mid_hold_is_bounded_by_the_window(self):
        """The close of the awaited client wakes the hold, long before
        the window: nobody is left who could join."""
        config = ServiceConfig(batch_window_s=5.0)
        with BackgroundServer(make_server(make_pois()), config) as running:
            first, second = _connect(running, 2)
            with first:
                started = time.monotonic()
                _send_burst(first, 1, COLOCATED[:4])
                time.sleep(0.1)  # the wave is held, waiting for ``second``
                second.close()
                replies = _read_replies(first, 4)
                elapsed = time.monotonic() - started
        assert elapsed < 1.0
        assert [replies[i].batch_size for i in (1, 2, 3, 4)] == [4, 4, 4, 4]

    def test_held_wave_dispatches_when_it_reaches_max_batch(self):
        """``_run_waves`` leaves one connection outside every wave."""
        config = ServiceConfig(batch_window_s=5.0, max_batch=4)
        replies, elapsed, registry = _run_waves(
            config, [(COLOCATED[:2], 0.0), (COLOCATED[2:4], 0.0)]
        )
        assert elapsed < 1.0
        assert [reply.batch_size for reply in replies] == [4, 4, 4, 4]
        assert registry.value("service.dispatch", decision="held") == 1.0
        assert registry.value("service.dispatch", decision="immediate") == 0.0
        hold = registry.histogram("service.hold_s", boundaries=DEFAULT_TIME_BUCKETS_S)
        assert hold.count == 1
        assert hold.sum < 1.0

    def test_window_is_counted_from_the_oldest_enqueue(self):
        """Ten seconds queued behind a running batch is a window spent."""
        config = ServiceConfig(batch_window_s=5.0)
        replies, elapsed, registry = _run_waves(config, [(COLOCATED[:2], 10.0)])
        assert elapsed < 1.0
        assert [reply.batch_size for reply in replies] == [2, 2]
        assert registry.value("service.dispatch", decision="held") == 1.0

    def test_scattered_wave_is_counted_immediate(self):
        config = ServiceConfig(batch_window_s=5.0)
        replies, elapsed, registry = _run_waves(config, [(SCATTERED, 0.0)])
        assert elapsed < 1.0
        assert [reply.batch_size for reply in replies] == [1, 1, 1, 1]
        assert registry.value("service.dispatch", decision="immediate") == 1.0
        assert registry.value("service.dispatch", decision="held") == 0.0

    @pytest.mark.parametrize(
        "first, second, together",
        [
            (Point(0.25, 0.1), Point(0.2499999, 0.1), False),  # on the edge
            (Point(0.25, 0.1), Point(0.26, 0.1), True),
            (Point(0.1, 0.5), Point(0.1, 0.4999999), False),
            (Point(-0.01, 0.1), Point(0.01, 0.1), False),  # across zero
            (Point(0.0, 0.0), Point(-0.0, 0.0), True),
            (Point(-0.01, -0.01), Point(-0.2, -0.24), True),
            (Point(-0.25, 0.0), Point(-0.2500001, 0.0), False),
            (Point(-0.25, -0.5), Point(-0.01, -0.26), True),
        ],
    )
    def test_decision_agrees_with_the_executors_grouping(
        self, first, second, together
    ):
        running = AsyncQueryServer(make_server(make_pois()), ServiceConfig())
        requests = [KnnRequest(1, first, 3), KnnRequest(2, second, 3)]
        wave = [_Pending(r, 0.0, _Sink()) for r in requests]
        answers = running.service.executor.execute(requests)
        merged = [answer.batch_size for answer in answers] == [2, 2]
        assert running._has_cell_mates(wave) is merged
        assert merged is together


def _run_waves(config, waves):
    """Feed ``waves`` to a dispatcher on a private loop, no sockets.

    Each wave is ``(points, age_s)``: its requests are enqueued together,
    stamped ``age_s`` in the past, once the dispatcher has taken the
    wave before it.  Each wave comes from a connection of its own, and
    one more connection is open and never sends, so no hold here ends
    because everyone is in the wave.  Returns the replies in request
    order, the seconds until the last one, and the metrics the
    dispatcher recorded.
    """
    total = sum(len(points) for points, _ in waves)

    async def scenario():
        running = AsyncQueryServer(make_server(make_pois()), config)
        loop = running._loop = asyncio.get_running_loop()
        replies = []
        all_replied = loop.create_future()

        def collect(sent):
            replies.extend(sent)
            if len(replies) == total:
                all_replied.set_result(None)

        sinks = [_Sink(collect) for _ in waves]
        running._connections.update(sinks)
        running._connections.add(_Sink())  # idle
        started = loop.time()
        try:
            next_id = 1
            for sink, (points, age_s) in zip(sinks, waves):
                for point in points:
                    running._enqueue(
                        _Pending(
                            KnnRequest(next_id, point, 3), loop.time() - age_s, sink
                        )
                    )
                    next_id += 1
                # Let the dispatcher take the wave and decide on it.
                while running._queue:
                    await asyncio.sleep(0)
                await asyncio.sleep(0)
            await asyncio.wait_for(all_replied, 8.0)
        finally:
            if running._release_handle is not None:
                running._release_handle.cancel()
        return sorted(replies, key=lambda r: r.request_id), loop.time() - started

    previous = OBS.registry
    with observed():
        OBS.registry = MetricsRegistry()
        try:
            replies, elapsed = asyncio.run(scenario())
            return replies, elapsed, OBS.registry
        finally:
            OBS.registry = previous


async def _read_stream_frame(reader):
    header = await reader.readexactly(HEADER_SIZE)
    _, _, _, length = struct.unpack(">2sBBI", header)
    return decode_message(header + await reader.readexactly(length))


def _with_queued_bursts(bursts, scenario, config=ServiceConfig()):
    """Run ``scenario`` with one client stream per burst, nothing dispatched.

    The server's connections run on real sockets but its dispatcher
    never does, so every burst sits in the queue: ``scenario`` gets the
    server, the queued wave and the ``(reader, writer)`` client streams,
    and decides when ``_execute_batch`` runs and on what.
    """

    async def run():
        running = AsyncQueryServer(make_server(make_pois()), config)
        running._dispatch = lambda: None
        await running.start()
        streams = []
        try:
            next_id = 1
            for points in bursts:
                reader, writer = await asyncio.open_connection(*running.address)
                streams.append((reader, writer))
                for point in points:
                    writer.write(encode_message(KnnRequest(next_id, point, 5)))
                    next_id += 1
                while len(running._queue) < next_id - 1:
                    await asyncio.sleep(0.001)
            wave = [running._queue.popleft() for _ in range(next_id - 1)]
            return await asyncio.wait_for(scenario(running, wave, streams), 10.0)
        finally:
            for _, writer in streams:
                writer.close()
            await running.stop()

    return asyncio.run(run())


class TestWaveReplies:
    """A wave's replies to one connection leave in one write, in order."""

    def test_one_write_per_connection_per_wave(self):
        async def scenario(running, wave, streams):
            writes = []

            def counted(write):
                def count(data):
                    writes.append(write.__self__)
                    write(data)

                return count

            for connection in {item.connection for item in wave}:
                transport = connection._transport
                transport.write = counted(transport.write)
            running._execute_batch(wave, asyncio.get_running_loop().time())
            replies = [
                [await _read_stream_frame(reader) for _ in range(4)]
                for reader, _ in streams
            ]
            return writes, replies

        writes, replies = _with_queued_bursts(
            [COLOCATED[:4], COLOCATED[4:]], scenario
        )
        assert len(writes) == len(set(writes)) == 2
        assert [[r.request_id for r in burst] for burst in replies] == [
            [1, 2, 3, 4],
            [5, 6, 7, 8],
        ]
        assert {r.batch_size for burst in replies for r in burst} == {8}

    def test_every_inflight_slot_of_a_wave_is_released_once(self):
        """Six pipelined requests through a window of two: three waves."""
        config = ServiceConfig(max_inflight=2, batch_window_s=5.0)
        with BackgroundServer(make_server(make_pois()), config) as running:
            with socket.create_connection(running.address, timeout=10.0) as sock:
                _send_burst(sock, 1, COLOCATED[:6])
                replies = _read_replies(sock, 6)
        assert sorted(replies) == [1, 2, 3, 4, 5, 6]
        # A slot released twice would let a third request into a wave.
        assert max(reply.batch_size for reply in replies.values()) <= 2

    def test_timeout_and_answers_of_one_wave_share_the_write(self):
        async def scenario(running, wave, streams):
            wave[0].enqueued_at -= 2.0 * running.config.request_timeout_s
            running._execute_batch(wave, asyncio.get_running_loop().time())
            (reader, _), = streams
            return [await _read_stream_frame(reader) for _ in range(4)]

        replies = _with_queued_bursts([COLOCATED[:4]], scenario)
        assert [reply.request_id for reply in replies] == [1, 2, 3, 4]
        assert isinstance(replies[0], ErrorReply)
        assert replies[0].code is ErrorCode.TIMEOUT
        assert [len(reply.neighbors) for reply in replies[1:]] == [5, 5, 5]
        assert [reply.batch_size for reply in replies[1:]] == [3, 3, 3]

    def test_client_gone_before_the_write_costs_the_others_nothing(self):
        async def scenario(running, wave, streams):
            (reader, _), (_, gone) = streams
            gone.close()
            await gone.wait_closed()
            while len(running._connections) > 1:
                await asyncio.sleep(0.001)
            running._execute_batch(wave, asyncio.get_running_loop().time())
            return [await _read_stream_frame(reader) for _ in range(4)]

        replies = _with_queued_bursts([COLOCATED[:4], COLOCATED[4:]], scenario)
        assert [reply.request_id for reply in replies] == [1, 2, 3, 4]
        assert [reply.batch_size for reply in replies] == [8, 8, 8, 8]

    def test_paused_writing_holds_the_slots_until_resumed(self):
        """``pause_writing`` keeps a wave's slots; ``resume_writing`` frees
        each once, and the connection reads again."""

        async def scenario(running, wave, streams):
            ((reader, writer),) = streams
            loop = asyncio.get_running_loop()
            connection = wave[0].connection
            connection.pause_writing()
            running._execute_batch(wave, loop.time())
            replies = [await _read_stream_frame(reader) for _ in range(2)]
            paused = connection._inflight
            writer.write(encode_message(KnnRequest(3, COLOCATED[2], 5)))
            await asyncio.sleep(0.05)
            queued_while_paused = len(running._queue)
            connection.resume_writing()
            resumed = connection._inflight
            while not running._queue:
                await asyncio.sleep(0.001)
            running._execute_batch([running._queue.popleft()], loop.time())
            replies.append(await _read_stream_frame(reader))
            return replies, paused, queued_while_paused, resumed, connection._inflight

        replies, paused, queued_while_paused, resumed, final = _with_queued_bursts(
            [COLOCATED[:2]], scenario, ServiceConfig(max_inflight=2)
        )
        assert [reply.request_id for reply in replies] == [1, 2, 3]
        assert (paused, queued_while_paused) == (2, 0)
        # A slot released twice would leave the count below zero.
        assert (resumed, final) == (0, 0)

    def test_queue_capacity_stalls_readers_and_loses_nothing(self):
        """Six pipelined requests through a queue of two: each answered once."""

        async def run():
            config = ServiceConfig(queue_capacity=2, batch_window_s=5.0)
            running = AsyncQueryServer(make_server(make_pois()), config)
            depths = []
            note = running._note_queue_depth

            def recording():
                depths.append(len(running._queue))
                note()

            running._note_queue_depth = recording
            await running.start()
            try:
                reader, writer = await asyncio.open_connection(*running.address)
                writer.write(
                    b"".join(
                        encode_message(KnnRequest(i, point, 5))
                        for i, point in enumerate(COLOCATED[:6], start=1)
                    )
                )
                replies = [await _read_stream_frame(reader) for _ in range(6)]
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(reader.read(1), 0.2)
                writer.close()
            finally:
                await running.stop()
            return replies, depths

        replies, depths = asyncio.run(run())
        assert sorted(reply.request_id for reply in replies) == [1, 2, 3, 4, 5, 6]
        assert max(depths) == 2
        assert max(reply.batch_size for reply in replies) <= 2


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_cell_size": 0.0},
            {"batch_window_s": -0.1},
            {"max_batch": 0},
            {"max_inflight": 0},
            {"queue_capacity": 0},
            {"request_timeout_s": 0.0},
            {"stream_chunk": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestLifecycle:
    def test_serve_forever_without_start_raises(self):
        server = AsyncQueryServer(make_server(make_pois(20)), ServiceConfig())

        async def attempt():
            await server.serve_forever()

        with pytest.raises(RuntimeError, match=r"start\(\) not called"):
            asyncio.run(attempt())


class TestRepliesTheWireCannotCarry:
    """A reply that cannot be encoded becomes that request's error reply;
    the wave's other replies still leave and every slot is freed."""

    def test_oversized_answer_in_a_shared_wave_is_an_error_for_its_request(self):
        # 1 100 POIs with 1 000-character labels: an answer holding all of
        # them is about 1.1 MiB, past MAX_PAYLOAD.
        rng = np.random.default_rng(5)
        pois = [
            (Point(float(x), float(y)), f"{i:04d}" + "x" * 996)
            for i, (x, y) in enumerate(rng.uniform(0.0, 4.0, size=(1100, 2)))
        ]
        reference = make_server(pois)
        config = ServiceConfig(batch_window_s=5.0, max_inflight=2)
        with BackgroundServer(make_server(pois), config) as running:
            big, small = _connect(running, 2)
            try:
                for sock in (big, small):
                    sock.settimeout(5.0)
                # Two cell-mates on ``big`` hold the wave until ``small``
                # joins it: one wave, three requests, one reply too large.
                big.sendall(
                    encode_message(KnnRequest(1, COLOCATED[0], len(pois)))
                    + encode_message(KnnRequest(2, COLOCATED[1], 5))
                )
                _send_burst(small, 3, COLOCATED[2:3])
                from_big = _read_replies(big, 2)
                from_small = _read_replies(small, 1)
                # Both of ``big``'s slots are free again: it is read and answered.
                _send_burst(big, 4, COLOCATED[3:4])
                again = _read_replies(big, 1)
            finally:
                big.close()
                small.close()
        error = from_big[1]
        assert isinstance(error, ErrorReply)
        assert error.code is ErrorCode.OVERSIZED
        assert "exceeds MAX_PAYLOAD" in error.message
        for request_id, reply in ((2, from_big[2]), (3, from_small[3])):
            assert reply.batch_size == 3
            expected = reference.knn_query_detailed(COLOCATED[request_id - 1], 5)
            assert answer_key(reply.neighbors) == answer_key(expected.neighbors)
        assert answer_key(again[4].neighbors) == answer_key(
            reference.knn_query_detailed(COLOCATED[3], 5).neighbors
        )

    def test_payload_without_a_wire_tag_is_unsupported_and_the_connection_lives(self):
        pois = make_pois(count=50) + [(Point(1.0, 1.0), ("not", "a", "label"))]
        with BackgroundServer(make_server(pois), ServiceConfig()) as running:
            with socket.create_connection(running.address, timeout=5.0) as sock:
                sock.sendall(encode_message(KnnRequest(7, Point(1.0, 1.0), 1)))
                error = _read_frame(sock)
                _send_burst(sock, 8, [Point(3.6, 3.6)])  # far from the tuple
                after = _read_frame(sock)
        assert isinstance(error, ErrorReply)
        assert (error.request_id, error.code) == (7, ErrorCode.UNSUPPORTED)
        assert error.message == "unsupported POI payload type: tuple"
        assert after.request_id == 8 and len(after.neighbors) == 5

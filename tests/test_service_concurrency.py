"""Service concurrency: exact answers from threads sharing one server.

- **A shared transport.**  Eight threads share one
  ``ServiceClient(TcpTransport)``; the transport's lock is what keeps
  each reply with its request.
- **Exactness under contention.**  Eight threads mixing per-thread
  loopback sessions and TCP clients against one shared server must
  produce bit-identical answers to a single-threaded in-process
  reference.

Hypothesis drives the seed so different runs exercise different POI
sets and query mixes while any failure is replayable.
"""

import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.server import SpatialDatabaseServer
from repro.geometry.point import Point
from repro.obs import OBS, MetricsRegistry, observed
from repro.service.asyncserver import BackgroundServer, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.transport import LoopbackTransport, TcpTransport


def make_pois(count, seed, extent=4.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, extent, size=(count, 2))
    return [
        (Point(float(x), float(y)), f"poi-{i}")
        for i, (x, y) in enumerate(coords)
    ]


def make_server(pois):
    return SpatialDatabaseServer.from_points(pois)


def answer_key(neighbors):
    return tuple(
        (n.point.x, n.point.y, n.payload, n.distance) for n in neighbors
    )


class TestSharedTransport:
    def test_one_tcp_client_shared_by_eight_threads_stays_exact(self):
        """The transport's lock keeps each reply with its request.

        Eight threads share one ``ServiceClient(TcpTransport)``; without
        the lock their frames interleave on the one socket and replies
        reach the wrong thread (``reply for request 2, expected 5``).
        """
        pois = make_pois(250, seed=9)
        reference = make_server(pois)
        rng = np.random.default_rng(10)
        queries = [
            Point(float(x), float(y))
            for x, y in rng.uniform(0.0, 4.0, size=(20, 2))
        ]
        expected = [answer_key(reference.knn_query(q, 5)) for q in queries]
        failures = []
        barrier = threading.Barrier(8)

        def run_worker(client, worker_id):
            try:
                barrier.wait(timeout=30.0)
                for _ in range(5):
                    for i, query in enumerate(queries):
                        got = client.knn_query_detailed(query, 5).neighbors
                        if answer_key(got) != expected[i]:
                            failures.append((worker_id, i))
            except Exception as exc:  # a torn frame or a stolen reply
                failures.append((worker_id, repr(exc)))

        with BackgroundServer(make_server(pois), ServiceConfig()) as running:
            client = ServiceClient(TcpTransport(*running.address, timeout_s=5.0))
            try:
                threads = [
                    threading.Thread(target=run_worker, args=(client, worker_id))
                    for worker_id in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
            finally:
                client.close()
        assert failures == []


class _RegistryLock:
    """The registry lock, refusing re-entry by the thread that holds it."""

    def __init__(self, inner):
        self._inner = inner
        self.owner = None

    def __enter__(self):
        if self.owner == threading.get_ident():
            raise AssertionError("the registry lock was re-acquired by its holder")
        self._inner.acquire()
        self.owner = threading.get_ident()
        return self

    def __exit__(self, *exc_info):
        self.owner = None
        self._inner.release()


class _TransportLock:
    """The transport lock, refusing to be taken under the registry lock."""

    def __init__(self, inner, registry_lock):
        self._inner = inner
        self._registry_lock = registry_lock

    def __enter__(self):
        if self._registry_lock.owner == threading.get_ident():
            raise AssertionError("transport lock taken under the registry lock")
        self._inner.acquire()
        return self

    def __exit__(self, *exc_info):
        self._inner.release()


class TestLockOrder:
    def test_the_registry_lock_is_taken_last(self):
        """Two locks, one order: transport, then registry, never back.

        A resend counts ``service.client_resends`` under the transport
        lock; the registry lock is a leaf, taken last and never twice.
        """
        pois = make_pois(100, seed=5)
        reference = make_server(pois)
        registry = MetricsRegistry()
        registry_lock = registry._lock = _RegistryLock(registry._lock)
        previous = OBS.registry
        with observed(enabled=True):
            OBS.registry = registry
            try:
                with BackgroundServer(make_server(pois), ServiceConfig()) as running:
                    transport = TcpTransport(*running.address)
                    transport._lock = _TransportLock(transport._lock, registry_lock)
                    client = ServiceClient(transport)
                    try:
                        for query in (Point(1.0, 1.0), Point(3.2, 0.4)):
                            transport._close_socket()  # force a resend
                            got = client.knn_query_detailed(query, 5).neighbors
                            assert answer_key(got) == answer_key(
                                reference.knn_query(query, 5)
                            )
                    finally:
                        client.close()
            finally:
                OBS.registry = previous
        assert registry.value("service.client_resends") == 2.0


class TestStress:
    @settings(
        max_examples=2,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_mixed_clients_exact_under_contention(self, seed):
        """≥8 threads, loopback + TCP mixed, bit-identical answers."""
        pois = make_pois(250, seed=seed)
        reference = make_server(pois)
        rng = np.random.default_rng(seed + 1)
        queries = [
            Point(float(x), float(y))
            for x, y in rng.uniform(0.0, 4.0, size=(12, 2))
        ]
        expected = {
            (i, k): answer_key(reference.knn_query(q, k))
            for i, q in enumerate(queries)
            for k in (3, 7)
        }

        failures = []
        barrier = threading.Barrier(8)

        def run_client(make_transport, worker_id):
            client = ServiceClient(make_transport())
            try:
                barrier.wait(timeout=30.0)
                for i, query in enumerate(queries):
                    for k in (3, 7):
                        got = answer_key(
                            client.knn_query_detailed(query, k).neighbors
                        )
                        if got != expected[(i, k)]:
                            failures.append((worker_id, i, k))
            finally:
                client.close()

        with observed():
            served = make_server(pois)
            with BackgroundServer(served, ServiceConfig()) as running:
                def tcp_factory():
                    return TcpTransport(*running.address)

                def loopback_factory():
                    # Per-thread server instance: loopback sessions
                    # must not race the event-loop thread's batches
                    # on one engine, only the *answers* are shared.
                    return LoopbackTransport(
                        QueryService(make_server(pois))
                    )

                threads = []
                for worker_id in range(8):
                    factory = (
                        tcp_factory if worker_id % 2 == 0 else loopback_factory
                    )
                    thread = threading.Thread(
                        target=run_client, args=(factory, worker_id)
                    )
                    thread.start()
                    threads.append(thread)
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
        assert failures == []

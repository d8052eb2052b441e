"""Service-era concurrency stress tests under the race sanitizer.

Two claims are checked here, both against a *live* server:

1. **Runtime lock-order graph ⊆ static lock-order graph.**  Execution
   with ``REPRO_SANITIZE=1`` records every observed lock nesting; the
   static pass (``repro-lint --deep``, RPR019) predicts a superset.  An
   observed edge the static graph lacks means either an analysis gap or
   a genuinely dynamic acquisition order -- both are test failures.
2. **Exactness under contention.**  ≥8 threads mixing per-thread
   loopback sessions and TCP clients against one shared server must
   produce bit-identical answers to a single-threaded in-process
   reference, with zero sanitizer reports (no lock inversions, no
   unguarded metric mutations).

Hypothesis drives the seed so different runs exercise different POI
sets and query mixes while any failure is replayable.
"""

import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.locks import canonical_lock_name
from repro.analysis.runtime import SANITIZER, sanitized
from repro.core.server import ServerAlgorithm, SpatialDatabaseServer
from repro.geometry.point import Point
from repro.obs import observed
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
    return SpatialDatabaseServer.from_points(pois, algorithm=ServerAlgorithm.EINN)


def answer_key(neighbors):
    return tuple(
        (n.point.x, n.point.y, n.payload, n.distance) for n in neighbors
    )


class TestRuntimeMatchesStatic:
    def test_observed_edges_are_predicted(self, head_analysis):
        """Drive the service, then diff runtime edges against static."""
        assert head_analysis.ok
        pois = make_pois(200, seed=3)
        reference = make_server(pois)
        SANITIZER.reset_concurrency()
        try:
            with sanitized(), observed():
                with BackgroundServer(make_server(pois), ServiceConfig()) as running:
                    client = ServiceClient(TcpTransport(*running.address))
                    try:
                        for query in (Point(1.0, 1.0), Point(3.2, 0.4)):
                            answer = client.knn_query_detailed(query, 5)
                            expected = reference.knn_query_detailed(query, 5)
                            assert answer_key(answer.neighbors) == answer_key(
                                expected.neighbors
                            )
                        # Force the reconnect-and-resend path so the
                        # transport's full locking surface executes.
                        client._transport._close_socket()
                        answer = client.knn_query_detailed(Point(2.0, 3.9), 5)
                        expected = reference.knn_query_detailed(Point(2.0, 3.9), 5)
                        assert answer_key(answer.neighbors) == answer_key(
                            expected.neighbors
                        )
                    finally:
                        client.close()
            observed_edges = [
                (canonical_lock_name(outer), canonical_lock_name(inner))
                for outer, inner in SANITIZER.lock_order_edges()
            ]
            assert observed_edges, "sanitizer recorded no lock nestings"
            assert head_analysis.lock_graph.missing_edges(observed_edges) == []
            assert SANITIZER.lock_order_violations == []
            assert SANITIZER.metric_violations == []
        finally:
            SANITIZER.reset_concurrency()

    def test_transport_metrics_edge_is_exercised(self, head_analysis):
        """The headline edge exists statically AND fires at runtime."""
        edge = ("TcpTransport._lock", "MetricsRegistry._lock")
        assert edge in head_analysis.lock_graph.edges
        pois = make_pois(100, seed=5)
        SANITIZER.reset_concurrency()
        try:
            with sanitized(), observed():
                with BackgroundServer(make_server(pois), ServiceConfig()) as running:
                    client = ServiceClient(TcpTransport(*running.address))
                    try:
                        client._transport._close_socket()  # force a resend
                        client.knn_query_detailed(Point(1.0, 1.0), 3)
                    finally:
                        client.close()
            observed_edges = {
                (canonical_lock_name(outer), canonical_lock_name(inner))
                for outer, inner in SANITIZER.lock_order_edges()
            }
            assert edge in observed_edges
        finally:
            SANITIZER.reset_concurrency()


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

        SANITIZER.reset_concurrency()
        try:
            with sanitized(), observed():
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
            assert SANITIZER.lock_order_violations == []
            assert SANITIZER.metric_violations == []
        finally:
            SANITIZER.reset_concurrency()

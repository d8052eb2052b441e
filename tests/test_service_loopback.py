"""Tests for the loopback transport: served == direct, bit for bit.

The loopback transport runs the full wire codec (encode -> decode ->
engine -> encode -> decode) against the same server object a direct
call would use, so every answer -- neighbors, page breakdowns, SENN
pipelines built on top -- must match the in-process path exactly.  This
is the in-tree version of the difftest's ``service-*`` checks.
"""

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.index.knn import PruningBounds
from repro.core.senn import SennConfig, senn_query
from repro.core.server import SpatialDatabaseServer
from repro.obs import OBS, MetricsRegistry, observed
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import QueryService
from repro.service.transport import LoopbackTransport, QueryTransport


def make_pois(count=350, seed=0, extent=4.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, extent, size=(count, 2))
    return [(Point(float(x), float(y)), f"poi-{i}") for i, (x, y) in enumerate(coords)]


def make_server(pois):
    return SpatialDatabaseServer.from_points(pois)


def served_and_direct(pois):
    served = make_server(pois)
    client = ServiceClient(LoopbackTransport(QueryService(served)))
    return served, client, make_server(pois)


def answer_key(neighbors):
    return tuple((n.point.x, n.point.y, n.payload, n.distance) for n in neighbors)


class TestQueriesMatchDirect:
    def test_knn_bit_identical_including_pages(self):
        pois = make_pois()
        _, client, direct = served_and_direct(pois)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            query = Point(float(rng.uniform(0, 4)), float(rng.uniform(0, 4)))
            served_answer = client.knn_query_detailed(query, 6)
            direct_answer = direct.knn_query_detailed(query, 6)
            assert answer_key(served_answer.neighbors) == answer_key(direct_answer.neighbors)
            assert served_answer.pages == direct_answer.pages

    def test_knn_with_bounds_and_known_certain(self):
        pois = make_pois(seed=1)
        _, client, direct = served_and_direct(pois)
        query = Point(1.7, 2.3)
        seeded = direct.knn_query(query, 4)
        bounds = PruningBounds(seeded[0].distance, seeded[-1].distance * 2.0)
        known = tuple(seeded[:2])
        reference = make_server(pois)
        served_answer = client.knn_query_detailed(query, 4, bounds, known)
        direct_answer = reference.knn_query_detailed(query, 4, bounds, known)
        assert answer_key(served_answer.neighbors) == answer_key(direct_answer.neighbors)
        assert served_answer.pages == direct_answer.pages

    def test_incremental_stream_prefix_matches(self):
        pois = make_pois(seed=3)
        _, client, direct = served_and_direct(pois)
        query = Point(3.1, 0.9)
        stream = client.incremental_query(query)
        prefix = [next(stream) for _ in range(10)]
        stream.close()
        assert answer_key(prefix) == answer_key(direct.knn_query(query, 10))


class TestSennOverLoopback:
    def test_senn_matches_direct_senn(self):
        pois = make_pois(seed=4)
        _, client, direct = served_and_direct(pois)
        config = SennConfig(k=4, cache_capacity=10)
        query = Point(1.1, 3.0)
        served_result = senn_query(query, config.k, None, [], config, server=client)
        direct_result = senn_query(query, config.k, None, [], config, server=direct)
        assert answer_key(served_result.neighbors) == answer_key(direct_result.neighbors)
        assert served_result.tier is direct_result.tier
        assert served_result.server_pages == direct_result.server_pages

    def test_senn_overfetch_trims_to_k_over_the_wire(self):
        """Cache policy 2: the surplus lives in ``prefetched``, not the answer."""
        pois = make_pois(seed=5)
        _, client, direct = served_and_direct(pois)
        config = SennConfig(k=3, cache_capacity=10)
        query = Point(2.8, 1.4)
        served_result = senn_query(
            query, config.k, None, [], config, server=client, server_k=10
        )
        direct_result = senn_query(
            query, config.k, None, [], config, server=direct, server_k=10
        )
        assert len(served_result.neighbors) == config.k
        assert answer_key(served_result.neighbors) == answer_key(direct_result.neighbors)
        assert answer_key(served_result.prefetched) == answer_key(direct_result.prefetched)
        assert len(served_result.prefetched) == 10


class TestStreamAccounting:
    def test_closed_stream_folds_into_history_once(self):
        pois = make_pois(seed=6)
        served, client, _ = served_and_direct(pois)
        before = len(served.counter.history)
        stream = client.incremental_query(Point(1.0, 1.0))
        for _ in range(5):
            next(stream)
        stream.close()
        history = served.counter.history[before:]
        assert len(history) == 1
        assert history[0].total > 0
        # Closing again (generator already finished) must not double-fold.
        stream.close()
        assert len(served.counter.history[before:]) == 1

    def test_exhausted_stream_folds_exactly_once(self):
        pois = make_pois(count=25, seed=7)
        served, client, _ = served_and_direct(pois)
        before = len(served.counter.history)
        items = list(client.incremental_query(Point(2.0, 2.0)))
        assert len(items) == len(pois)
        assert len(served.counter.history[before:]) == 1

    def test_session_close_folds_orphaned_streams(self):
        pois = make_pois(seed=8)
        served = make_server(pois)
        service = QueryService(served)
        transport = LoopbackTransport(service)
        client = ServiceClient(transport)
        stream = client.incremental_query(Point(0.5, 0.5))
        next(stream)
        before = len(served.counter.history)
        transport.close()  # closes the session without a StreamClose
        assert len(served.counter.history) == before + 1


class TestTransportContract:
    def test_loopback_satisfies_the_protocol(self):
        service = QueryService(make_server(make_pois(count=20)))
        assert isinstance(LoopbackTransport(service), QueryTransport)

    def test_error_reply_raises_service_error(self):
        pois = make_pois(count=20, seed=9)
        _, client, _ = served_and_direct(pois)
        # A stream id the session never issued.
        from repro.service.protocol import StreamPull, encode_message, decode_message
        from repro.service.protocol import ErrorCode, ErrorReply

        transport = LoopbackTransport(QueryService(make_server(pois)))
        reply = decode_message(transport.request(encode_message(StreamPull(5, 99, 3))))
        assert isinstance(reply, ErrorReply)
        assert reply.code is ErrorCode.BAD_STREAM
        # And the client surfaces it as ServiceError with the code attached.
        failing = ServiceClient(transport)
        with pytest.raises(ServiceError) as excinfo:
            failing._roundtrip(StreamPull(6, 99, 3))
        assert excinfo.value.code is ErrorCode.BAD_STREAM


class TestErrorCounting:
    def test_bad_stream_reply_is_counted_by_its_code(self):
        from repro.service.protocol import ErrorCode, StreamPull, decode_message
        from repro.service.protocol import encode_message

        transport = LoopbackTransport(QueryService(make_server(make_pois(count=20))))
        previous = OBS.registry
        with observed(enabled=True):
            OBS.registry = registry = MetricsRegistry()
            try:
                reply = decode_message(
                    transport.request(encode_message(StreamPull(5, 99, 3)))
                )
            finally:
                OBS.registry = previous
        assert reply.code is ErrorCode.BAD_STREAM
        assert registry.value("service.errors", code="BAD_STREAM") == 1.0
        assert registry.value("service.errors", code="INTERNAL") == 0.0

"""A served answer stays rows until something reads its neighbors.

A shared wave ranks each client's answer as ``(distance, tie, source)``
rows, and those rows are what the ``ANSWER`` encoder packs: serving a
wave builds a :class:`NeighborResult` only for what the traversal
streams.  The public functions still return lists of them, equal to the
direct path's.
"""

import contextlib

import numpy as np

import repro.core.server as server_module
import repro.index.knn as knn_module
import repro.service.batching as batching_module
import repro.service.protocol as protocol_module
from repro.geometry.point import Point
from repro.index.knn import NeighborResult, PruningBounds, k_nearest_einn
from repro.core.server import SpatialDatabaseServer
from repro.service.batching import BatchExecutor
from repro.service.engine import QueryService
from repro.service.protocol import KnnRequest, decode_message, encode_message

#: Every module that builds a ``NeighborResult`` on the serving path.
BUILDERS = (knn_module, batching_module, server_module, protocol_module)

K = 8
# Eight queries in one cell of the default 0.25 batching grid.
WAVE = [Point(2.01 + 0.02 * i, 2.03 + 0.01 * i) for i in range(8)]


def make_server(count=2000, seed=3, extent=10.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, extent, size=(count, 2))
    pois = [(Point(float(x), float(y)), f"poi-{i}") for i, (x, y) in enumerate(coords)]
    return SpatialDatabaseServer.from_points(pois)


@contextlib.contextmanager
def counting_neighbors():
    """Swap ``NeighborResult`` for a subclass that records every instance."""
    made = []

    class Counted(NeighborResult):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    saved = [(module, module.NeighborResult) for module in BUILDERS]
    for module, _ in saved:
        module.NeighborResult = Counted
    try:
        yield made
    finally:
        for module, original in saved:
            module.NeighborResult = original


@contextlib.contextmanager
def counting_stream():
    """Record every neighbor the shared traversal's stream yields."""
    streamed = []
    real = batching_module.incremental_nearest

    def stream(*args):
        for neighbor in real(*args):
            streamed.append(neighbor)
            yield neighbor

    batching_module.incremental_nearest = stream
    try:
        yield streamed
    finally:
        batching_module.incremental_nearest = real


def wave():
    return [KnnRequest(i + 1, point, K) for i, point in enumerate(WAVE)]


class TestServedWave:
    def test_a_wave_builds_only_the_neighbors_it_streams(self):
        service = QueryService(make_server())
        with counting_neighbors() as made, counting_stream() as streamed:
            replies = service.execute_knn_batch(wave())
            frames = [encode_message(reply) for reply in replies]
        assert [reply.batch_size for reply in replies] == [len(WAVE)] * len(WAVE)
        # Each built neighbor is one the stream yielded; none is an answer's.
        assert 0 < len(streamed) < K * len(WAVE)
        assert [id(n) for n in made] == [id(n) for n in streamed]
        direct = make_server()
        for point, frame in zip(WAVE, frames):
            expected = direct.knn_query_detailed(point, K).neighbors
            assert decode_message(frame).neighbors == tuple(expected)

    def test_public_answers_are_still_lists_of_neighbors(self):
        answers = BatchExecutor(make_server()).execute(wave())
        direct = make_server()
        for point, answer in zip(WAVE, answers):
            assert answer.batch_size == len(WAVE)
            expected = direct.knn_query_detailed(point, K)
            assert type(answer.neighbors) is list
            assert type(expected.neighbors) is list
            assert all(type(n) is NeighborResult for n in answer.neighbors)
            assert answer.neighbors == expected.neighbors
            assert answer.neighbors is answer.neighbors  # built once


class TestEinnBuildsOnlyWhatItReturns:
    def test_one_neighbor_per_returned_row(self):
        server = make_server()
        query = Point(5.0, 5.0)
        known = server.knn_query(query, 3)
        with counting_neighbors() as made:
            plain = k_nearest_einn(server.tree, query, K)
            seeded = k_nearest_einn(
                server.tree, query, K, PruningBounds(known[-1].distance), known
            )
        assert len(plain) == len(seeded) == K
        assert [id(n) for n in made] == [id(n) for n in plain + seeded]

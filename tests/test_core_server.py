"""Tests for repro.core.server."""

import numpy as np
import pytest

from repro.core.server import SpatialDatabaseServer
from repro.geometry.point import Point
from repro.index.knn import NeighborResult, PruningBounds
from repro.index.rtree import RTreeConfig


def make_pois(n, seed=0, extent=100.0):
    rng = np.random.default_rng(seed)
    return [
        (Point(float(x), float(y)), f"poi-{i}")
        for i, (x, y) in enumerate(
            zip(rng.uniform(0, extent, n), rng.uniform(0, extent, n))
        )
    ]


class TestConstruction:
    def test_from_points_bulk(self):
        server = SpatialDatabaseServer.from_points(make_pois(100))
        assert server.poi_count == 100

    def test_from_points_incremental(self):
        server = SpatialDatabaseServer.from_points(make_pois(50), bulk=False)
        assert server.poi_count == 50

    def test_empty_server(self):
        server = SpatialDatabaseServer.from_points([])
        assert server.poi_count == 0
        assert server.knn_query(Point(0, 0), 3) == []


class TestQueries:
    def test_knn_correct(self):
        pois = make_pois(200)
        server = SpatialDatabaseServer.from_points(pois)
        q = Point(50, 50)
        result = server.knn_query(q, 5)
        expected = sorted(q.distance_to(p) for p, _ in pois)[:5]
        assert [r.distance for r in result] == pytest.approx(expected)

    def test_query_counts_pages(self):
        server = SpatialDatabaseServer.from_points(make_pois(500))
        server.knn_query(Point(10, 10), 3)
        assert server.queries_served == 1
        breakdown = server.last_query_breakdown()
        assert breakdown is not None and breakdown.total > 0
        assert server.mean_page_accesses() > 0

    def test_einn_with_bounds_saves_pages(self):
        pois = make_pois(3000, seed=5)
        q = Point(50, 50)
        ordered = sorted((q.distance_to(p), i, p) for i, (p, _) in enumerate(pois))
        known = [NeighborResult(p, f"poi-{i}", d) for d, i, p in ordered[:4]]
        bounds = PruningBounds(lower=ordered[3][0], upper=ordered[7][0])

        einn_server = SpatialDatabaseServer.from_points(pois)
        einn_result = einn_server.knn_query(q, 8, bounds, known)
        inn_server = SpatialDatabaseServer.from_points(pois)
        inn_result = inn_server.knn_query(q, 8)

        assert [r.distance for r in einn_result] == pytest.approx(
            [r.distance for r in inn_result]
        )
        assert (
            einn_server.last_query_breakdown().total
            <= inn_server.last_query_breakdown().total
        )

    def test_incremental_query(self):
        pois = make_pois(80)
        server = SpatialDatabaseServer.from_points(pois)
        stream = server.incremental_query(Point(0, 0))
        first_three = [next(stream) for _ in range(3)]
        distances = [r.distance for r in first_three]
        assert distances == sorted(distances)

    def test_buffer_pool_enabled(self):
        server = SpatialDatabaseServer.from_points(
            make_pois(1000), buffer_capacity=64
        )
        for i in range(5):
            server.knn_query(Point(50, 50), 4)
        last = server.last_query_breakdown()
        # Repeated identical queries should be fully buffered by now.
        assert last.buffer_hits > 0

    def test_reset_statistics(self):
        server = SpatialDatabaseServer.from_points(make_pois(100))
        server.knn_query(Point(0, 0), 2)
        server.reset_statistics()
        assert server.queries_served == 0
        assert server.mean_page_accesses() == 0.0


class TestDetailedAnswers:
    def test_knn_query_detailed_returns_own_breakdown(self):
        server = SpatialDatabaseServer.from_points(make_pois(300))
        answer = server.knn_query_detailed(Point(10, 10), 4)
        assert len(answer.neighbors) == 4
        assert answer.pages.total > 0
        assert answer.batch_size == 1
        # Single-threaded, the returned breakdown and the counter's last
        # history entry coincide.
        assert answer.pages == server.last_query_breakdown()


class TestIncrementalStreamAccounting:
    """Regression: streams bill a counter of their own, not whichever
    query happens to be open when the consumer pulls."""

    def test_stream_pages_do_not_contaminate_interleaved_query(self):
        pois = make_pois(500, seed=2)
        shared = SpatialDatabaseServer.from_points(pois)
        clean = SpatialDatabaseServer.from_points(pois)

        stream = shared.incremental_query(Point(5, 5))
        for _ in range(10):
            next(stream)
        # A kNN query interleaves with the open stream.
        contaminated = shared.knn_query_detailed(Point(90, 90), 3).pages
        reference = clean.knn_query_detailed(Point(90, 90), 3).pages
        assert contaminated == reference
        stream.close()

    def test_stream_folds_into_history_on_close(self):
        server = SpatialDatabaseServer.from_points(make_pois(200, seed=3))
        stream = server.incremental_query(Point(1, 1))
        for _ in range(5):
            next(stream)
        assert server.counter.history == []  # not folded while open
        stream.close()
        assert len(server.counter.history) == 1
        assert server.counter.history[0].total > 0

    def test_exhausted_stream_folds_once(self):
        server = SpatialDatabaseServer.from_points(make_pois(30, seed=4))
        results = list(server.incremental_query(Point(0, 0)))
        assert len(results) == 30
        assert len(server.counter.history) == 1
        assert server.mean_page_accesses() == server.counter.history[0].total

    def test_two_streams_account_separately(self):
        pois = make_pois(400, seed=5)
        server = SpatialDatabaseServer.from_points(pois)
        a = server.incremental_query(Point(10, 10))
        b = server.incremental_query(Point(90, 90))
        for _ in range(8):
            next(a)
            next(b)
        a.close()
        b.close()
        assert len(server.counter.history) == 2
        totals = [entry.total for entry in server.counter.history]
        assert all(total > 0 for total in totals)
        # The shared running total is the sum of both sub-streams.
        assert server.counter.total_accesses == sum(totals)

    def test_closing_a_stream_twice_folds_once(self):
        server = SpatialDatabaseServer.from_points(make_pois(100, seed=6))
        stream = server.open_stream(Point(0, 0))
        assert len(stream.pull(5)) == 5
        first = stream.close()
        assert stream.closed
        assert stream.close() is first
        assert server.counter.history == [first]
        assert server.counter.total_accesses == first.total
        assert server.counter.total_entries_scanned == first.entries_scanned > 0
        assert stream.pull(5) == ()

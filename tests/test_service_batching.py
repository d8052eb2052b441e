"""Tests for repro.service.batching: shared traversals stay exact.

The batching contract has two halves: answers are *bit-identical* to
what each request would get from ``knn_query_detailed`` on its own, and
the page bill amortizes -- node reads split across the group while
shipped records stay exact per client.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.batching as batching_module
from repro.geometry.point import Point
from repro.index.knn import NeighborResult, PruningBounds, poi_key
from repro.core.server import SpatialDatabaseServer
from repro.obs import OBS, MetricsRegistry, ServerRecord, observed
from repro.service.batching import BatchExecutor
from repro.service.protocol import KnnRequest

CELL = 0.25


def make_pois(count=400, seed=0, extent=4.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, extent, size=(count, 2))
    return [(Point(float(x), float(y)), f"poi-{i}") for i, (x, y) in enumerate(coords)]


def make_server(pois):
    return SpatialDatabaseServer.from_points(pois)


def cluster(seed, n, anchor=Point(2.05, 2.05), spread=CELL / 8.0):
    rng = np.random.default_rng(seed)
    return [
        anchor.translated(float(rng.uniform(0, spread)), float(rng.uniform(0, spread)))
        for _ in range(n)
    ]


def answer_key(neighbors):
    return tuple((n.point.x, n.point.y, n.payload, n.distance) for n in neighbors)


class TestExactness:
    def test_batched_answers_match_direct_bit_for_bit(self):
        pois = make_pois()
        batched = BatchExecutor(make_server(pois), cell_size=CELL)
        direct = make_server(pois)
        points = cluster(seed=1, n=6)
        requests = [KnnRequest(i + 1, p, 5) for i, p in enumerate(points)]
        answers = batched.execute(requests)
        assert all(a.batch_size == len(points) for a in answers)
        for point, answer in zip(points, answers):
            expected = direct.knn_query_detailed(point, 5)
            assert answer_key(answer.neighbors) == answer_key(expected.neighbors)

    def test_batched_respects_bounds_and_known_certain(self):
        pois = make_pois(seed=3)
        direct = make_server(pois)
        points = cluster(seed=4, n=4)
        requests = []
        for i, p in enumerate(points):
            base = direct.knn_query(p, 3)
            known = tuple(base[:1])
            bounds = PruningBounds(0.0, base[-1].distance * 1.5)
            requests.append(KnnRequest(i + 1, p, 3, bounds, known))
        batched = BatchExecutor(make_server(pois), cell_size=CELL)
        reference = make_server(pois)
        for request, answer in zip(requests, batched.execute(requests)):
            expected = reference.knn_query_detailed(
                request.query, request.k, request.bounds, request.known_certain
            )
            assert answer_key(answer.neighbors) == answer_key(expected.neighbors)

    def test_tight_upper_bound_truncates_in_batch_too(self):
        pois = make_pois(seed=5)
        direct = make_server(pois)
        points = cluster(seed=6, n=3)
        # An upper bound below the 2nd NN leaves at most one neighbor.
        requests = [
            KnnRequest(
                i + 1, p, 4, PruningBounds(0.0, direct.knn_query(p, 2)[1].distance * 0.99)
            )
            for i, p in enumerate(points)
        ]
        reference = make_server(pois)
        for request, answer in zip(requests, BatchExecutor(make_server(pois), cell_size=CELL).execute(requests)):
            expected = reference.knn_query_detailed(
                request.query, request.k, request.bounds
            )
            assert answer_key(answer.neighbors) == answer_key(expected.neighbors)
            assert len(answer.neighbors) <= 1

    def test_singleton_group_is_the_direct_path(self):
        pois = make_pois(seed=7)
        served = make_server(pois)
        reference = make_server(pois)
        query = Point(1.3, 2.7)
        answer = BatchExecutor(served, cell_size=CELL).execute(
            [KnnRequest(1, query, 5)]
        )[0]
        expected = reference.knn_query_detailed(query, 5)
        assert answer.batch_size == 1
        assert answer_key(answer.neighbors) == answer_key(expected.neighbors)
        assert answer.pages == expected.pages

    def test_far_apart_requests_do_not_merge(self):
        pois = make_pois(seed=8)
        served = make_server(pois)
        requests = [
            KnnRequest(1, Point(0.3, 0.3), 4),
            KnnRequest(2, Point(3.6, 3.6), 4),
        ]
        answers = BatchExecutor(served, cell_size=CELL).execute(requests)
        assert [a.batch_size for a in answers] == [1, 1]


class TestAmortization:
    def test_shares_sum_to_the_shared_traversal(self):
        pois = make_pois(seed=9)
        server = make_server(pois)
        executor = BatchExecutor(server, cell_size=CELL)
        requests = [KnnRequest(i + 1, p, 5) for i, p in enumerate(cluster(seed=10, n=5))]
        before = len(server.counter.history)
        answers = executor.execute(requests)
        recorded = server.counter.history[before:]
        assert len(recorded) == 1  # one shared traversal, one history entry
        assert sum(a.pages.index_nodes for a in answers) == recorded[0].index_nodes
        assert sum(a.pages.leaf_nodes for a in answers) == recorded[0].leaf_nodes
        assert sum(a.pages.data_records for a in answers) == recorded[0].data_records
        for answer in answers:
            pages = answer.pages
            assert pages.total == pages.index_nodes + pages.leaf_nodes + pages.data_records

    def test_amortized_pages_decrease_with_concurrency(self):
        pois = make_pois(count=800, seed=11)
        points = cluster(seed=12, n=8)
        costs = []
        for level in (1, 2, 4, 8):
            executor = BatchExecutor(make_server(pois), cell_size=CELL)
            answers = executor.execute(
                [KnnRequest(i + 1, p, 6) for i, p in enumerate(points[:level])]
            )
            costs.append(sum(a.pages.total for a in answers) / level)
        assert all(later < earlier for earlier, later in zip(costs, costs[1:]))

    def test_known_certain_records_are_not_billed(self):
        pois = make_pois(seed=13)
        direct = make_server(pois)
        points = cluster(seed=14, n=3)
        known = {p: tuple(direct.knn_query(p, 2)) for p in points}
        executor = BatchExecutor(make_server(pois), cell_size=CELL)
        requests = [
            KnnRequest(i + 1, p, 4, PruningBounds(), known[p])
            for i, p in enumerate(points)
        ]
        for request, answer in zip(requests, executor.execute(requests)):
            shipped = sum(
                1 for n in answer.neighbors
                if n not in request.known_certain
            )
            assert answer.pages.data_records == shipped


@st.composite
def shared_waves(draw):
    """POIs, 2-6 requests in one batching cell, and a buffer pool size.

    A request is ``(query, k, known, upper)``: ``known`` takes none, some
    or all k of the true answer as ``known_certain``, ``upper`` puts the
    bound nowhere, below, exactly at or above the k-th distance.
    """
    lattice = draw(st.booleans())
    coordinate = (
        st.integers(0, 16).map(lambda step: 0.125 * step)
        if lattice
        else st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    )
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30))
    # Some POIs share a location and are told apart by payload alone.
    points += draw(st.lists(st.sampled_from(points), max_size=5))
    style = draw(st.sampled_from(["str", "int", "mixed"]))
    pois = [
        (Point(x, y), f"poi-{i}" if style == "str" or (style == "mixed" and i % 2) else i)
        for i, (x, y) in enumerate(points)
    ]
    offset = st.sampled_from([0.0, 0.125]) | st.floats(0.0, 0.2499)
    requests = draw(
        st.lists(
            st.tuples(
                st.tuples(offset, offset),
                st.integers(1, 8),
                st.sampled_from(["none", "some", "fills"]),
                st.sampled_from(["inf", "below", "at", "above"]),
            ),
            min_size=2,
            max_size=6,
        )
    )
    return pois, requests, draw(st.sampled_from([0, 4]))


class TestSharedWaveProperties:
    @given(shared_waves(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_a_shared_wave_answers_and_bills_like_the_direct_path(self, wave, rng):
        pois, specs, buffer_pages = wave
        reference = make_server(pois)
        requests = []
        for index, ((dx, dy), k, known_mode, upper_mode) in enumerate(specs):
            query = Point(0.75 + dx, 0.75 + dy)
            truth = reference.knn_query(query, k)
            size = {"none": 0, "some": rng.randint(0, k), "fills": k}[known_mode]
            kth = truth[-1].distance
            upper = {"inf": math.inf, "below": kth * 0.5, "at": kth, "above": kth + 0.1}
            bounds = PruningBounds(0.0, upper[upper_mode])
            requests.append(KnnRequest(index + 1, query, k, bounds, tuple(truth[:size])))
        server = SpatialDatabaseServer.from_points(pois, buffer_capacity=buffer_pages)
        answers = BatchExecutor(server, cell_size=CELL).execute(requests)

        (wave_entry,) = server.counter.history
        for request, answer in zip(requests, answers):
            assert answer.batch_size == len(requests)
            expected = make_server(pois).knn_query_detailed(
                request.query, request.k, request.bounds, request.known_certain
            )
            assert repr(answer_key(answer.neighbors)) == repr(answer_key(expected.neighbors))
            held = {poi_key(n.point, n.payload) for n in request.known_certain}
            shipped = [n for n in answer.neighbors if poi_key(n.point, n.payload) not in held]
            assert answer.pages.data_records == len(shipped)
        sums = [sum(column) for column in zip(*(astuple(a.pages) for a in answers))]
        assert sums == list(astuple(wave_entry))


class TestRaisingWave:
    def test_a_wave_that_raises_mid_stream_publishes_what_it_read(self, monkeypatch):
        server = make_server(make_pois(seed=15))
        real = batching_module.incremental_nearest

        def two_then_raise(tree, query, counter):
            stream = real(tree, query, counter)
            yield next(stream)
            yield next(stream)
            raise RuntimeError("a node page could not be read")

        monkeypatch.setattr(batching_module, "incremental_nearest", two_then_raise)
        requests = [KnnRequest(i + 1, p, 5) for i, p in enumerate(cluster(seed=16, n=4))]
        previous = OBS.registry
        with observed(enabled=True):
            OBS.registry = registry = MetricsRegistry()
            try:
                with pytest.raises(RuntimeError):
                    BatchExecutor(server, cell_size=CELL).execute(requests)
            finally:
                OBS.registry = previous
        assert server.counter.total_accesses > 0
        assert registry.total("rtree.node_reads") == server.counter.total_accesses
        # The next query starts a fresh record instead of inheriting this one.
        assert server.counter.tally == ServerRecord()
        assert server.counter.history == [] and server.queries_served == 0


class TestValidation:
    def test_cell_size_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchExecutor(make_server(make_pois()), cell_size=0.0)

    def test_empty_wave_is_empty(self):
        executor = BatchExecutor(make_server(make_pois()), cell_size=CELL)
        assert executor.execute([]) == []

"""Tests for repro.core.heap (the candidate heap H, Table 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heap import CandidateHeap, HeapState
from repro.geometry.point import Point
from repro.obs import OBS, MetricsRegistry, observed


def entry(x, dist, certain, payload=None):
    return (Point(x, 0.0), payload if payload is not None else f"poi-{x}", dist, certain)


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CandidateHeap(0)

    def test_negative_distance_rejected(self):
        heap = CandidateHeap(3)
        with pytest.raises(ValueError):
            heap.add(Point(0, 0), "a", -1.0, True)

    def test_empty_state(self):
        heap = CandidateHeap(3)
        assert heap.state() is HeapState.EMPTY
        assert len(heap) == 0
        assert heap.last_certain_distance() is None
        assert heap.last_entry_distance() is None
        assert heap.max_distance() is None

    def test_add_certain(self):
        heap = CandidateHeap(3)
        assert heap.add(*entry(1, 1.0, True))
        assert heap.certain_count == 1
        assert heap.is_certain(Point(1, 0), "poi-1")

    def test_table1_layout(self):
        """Reproduce Table 1: two certain then two uncertain, sorted."""
        heap = CandidateHeap(4)
        heap.add(Point(1, 0), "n2-P1", 2.0 ** 0.5, True)
        heap.add(Point(2, 0), "n1-P1", 3.0 ** 0.5, True)
        heap.add(Point(3, 0), "n3-P1", 5.0 ** 0.5, False)
        heap.add(Point(4, 0), "n3-P2", 8.0 ** 0.5, False)
        entries = heap.entries()
        assert [e.payload for e in entries] == ["n2-P1", "n1-P1", "n3-P1", "n3-P2"]
        assert [e.certain for e in entries] == [True, True, False, False]
        assert heap.state() is HeapState.FULL_MIXED


class TestOrdering:
    def test_certain_sorted_ascending(self):
        heap = CandidateHeap(5)
        for x, d in [(1, 3.0), (2, 1.0), (3, 2.0)]:
            heap.add(*entry(x, d, True))
        distances = [e.distance for e in heap.certain_entries()]
        assert distances == sorted(distances)

    def test_uncertain_sorted_ascending(self):
        heap = CandidateHeap(5)
        for x, d in [(1, 3.0), (2, 1.0), (3, 2.0)]:
            heap.add(*entry(x, d, False))
        distances = [e.distance for e in heap.entries()]
        assert distances == sorted(distances)


class TestReplacement:
    def test_certain_replaces_uncertain_when_full(self):
        heap = CandidateHeap(2)
        heap.add(*entry(1, 1.0, False))
        heap.add(*entry(2, 2.0, False))
        assert heap.is_full
        heap.add(*entry(3, 3.0, True))
        assert heap.certain_count == 1
        assert heap.uncertain_count == 1
        # The farthest uncertain entry was evicted.
        payloads = {e.payload for e in heap.entries()}
        assert payloads == {"poi-1", "poi-3"}

    def test_uncertain_rejected_when_certain_full(self):
        heap = CandidateHeap(2)
        heap.add(*entry(1, 1.0, True))
        heap.add(*entry(2, 2.0, True))
        assert not heap.add(*entry(3, 0.5, False))
        assert heap.uncertain_count == 0

    def test_closer_uncertain_displaces_farther(self):
        heap = CandidateHeap(2)
        heap.add(*entry(1, 5.0, False))
        heap.add(*entry(2, 6.0, False))
        assert heap.add(*entry(3, 1.0, False))
        payloads = {e.payload for e in heap.entries()}
        assert payloads == {"poi-1", "poi-3"}

    def test_farther_uncertain_rejected_when_full(self):
        heap = CandidateHeap(2)
        heap.add(*entry(1, 1.0, False))
        heap.add(*entry(2, 2.0, False))
        assert not heap.add(*entry(3, 9.0, False))

    def test_excess_certain_dropped(self):
        heap = CandidateHeap(2)
        heap.add(*entry(1, 1.0, True))
        heap.add(*entry(2, 2.0, True))
        heap.add(*entry(3, 1.5, True))
        assert heap.certain_count == 2
        distances = [e.distance for e in heap.certain_entries()]
        assert distances == [1.0, 1.5]


class TestDeduplication:
    def test_duplicate_uncertain_is_noop(self):
        heap = CandidateHeap(3)
        heap.add(*entry(1, 1.0, False))
        assert heap.add(*entry(1, 1.0, False))
        assert len(heap) == 1

    def test_uncertain_upgraded_to_certain(self):
        heap = CandidateHeap(3)
        heap.add(*entry(1, 1.0, False))
        heap.add(*entry(1, 1.0, True))
        assert heap.certain_count == 1
        assert heap.uncertain_count == 0

    def test_certain_not_downgraded(self):
        heap = CandidateHeap(3)
        heap.add(*entry(1, 1.0, True))
        heap.add(*entry(1, 1.0, False))
        assert heap.certain_count == 1


class TestStates:
    def test_complete(self):
        heap = CandidateHeap(2)
        heap.add(*entry(1, 1.0, True))
        heap.add(*entry(2, 2.0, True))
        assert heap.state() is HeapState.COMPLETE
        assert heap.is_complete()

    def test_full_uncertain(self):
        heap = CandidateHeap(2)
        heap.add(*entry(1, 1.0, False))
        heap.add(*entry(2, 2.0, False))
        assert heap.state() is HeapState.FULL_UNCERTAIN

    def test_partial_mixed(self):
        heap = CandidateHeap(3)
        heap.add(*entry(1, 1.0, True))
        heap.add(*entry(2, 2.0, False))
        assert heap.state() is HeapState.PARTIAL_MIXED

    def test_partial_certain(self):
        heap = CandidateHeap(3)
        heap.add(*entry(1, 1.0, True))
        assert heap.state() is HeapState.PARTIAL_CERTAIN

    def test_partial_uncertain(self):
        heap = CandidateHeap(3)
        heap.add(*entry(1, 1.0, False))
        assert heap.state() is HeapState.PARTIAL_UNCERTAIN


_OFFER = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
    st.booleans(),
)


def _offers_snapshot(run, heap):
    """``heap.offers{...}`` values after ``run()`` and ``heap.flush_tally()``,
    on a fresh registry."""
    previous = OBS.registry
    OBS.registry = MetricsRegistry()
    try:
        run()
        heap.flush_tally()
        return OBS.registry.snapshot()
    finally:
        OBS.registry = previous


class TestAddBatchIsALoopOfAdd:
    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(_OFFER, max_size=40),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_heap_same_count_same_counters(self, capacity, raw, enabled):
        offers = [entry(*item) for item in raw]
        batched, looped = CandidateHeap(capacity), CandidateHeap(capacity)
        stored = {}

        def batch():
            stored["batch"] = batched.add_batch(offers)

        def loop():
            stored["loop"] = sum(looped.add(*offer) for offer in offers)

        with observed(enabled=enabled):
            by_batch = _offers_snapshot(batch, batched)
            by_loop = _offers_snapshot(loop, looped)
        assert stored["batch"] == stored["loop"]
        assert batched.entries() == looped.entries()
        assert by_batch == by_loop
        if enabled:
            assert sum(by_loop.values()) == len(offers)
            assert all(name.startswith("heap.offers{") for name in by_loop)
        else:
            assert by_batch == {}

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(_OFFER, min_size=1, max_size=20),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_negative_distance_stops_the_batch_where_add_would(
        self, capacity, raw, data
    ):
        bad = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        offers = [entry(*item) for item in raw]
        offers[bad] = offers[bad][:2] + (-1.0, offers[bad][3])
        batched, looped = CandidateHeap(capacity), CandidateHeap(capacity)

        def batch():
            with pytest.raises(ValueError):
                batched.add_batch(offers)

        def loop():
            for offer in offers[:bad]:
                looped.add(*offer)

        with observed(enabled=True):
            by_batch = _offers_snapshot(batch, batched)
            by_loop = _offers_snapshot(loop, looped)
        assert batched.entries() == looped.entries()
        assert by_batch == by_loop
        assert sum(by_batch.values()) == bad


class TestHeapProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.booleans(),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants_under_arbitrary_adds(self, capacity, additions):
        heap = CandidateHeap(capacity)
        for x, dist, certain in additions:
            heap.add(Point(float(x), 0.0), f"poi-{x}", dist, certain)
        # Size bounded by capacity.
        assert len(heap) <= capacity
        # Uncertain entries only while certain slots remain.
        if heap.uncertain_count > 0:
            assert heap.certain_count < capacity
        # Each bucket sorted ascending.
        certain_d = [e.distance for e in heap.certain_entries()]
        assert certain_d == sorted(certain_d)
        all_entries = heap.entries()
        uncertain_d = [e.distance for e in all_entries if not e.certain]
        assert uncertain_d == sorted(uncertain_d)
        # No duplicate POIs.
        keys = [e.key() for e in all_entries]
        assert len(keys) == len(set(keys))

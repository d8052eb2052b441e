"""Tests for repro.core.heap (the candidate heap H, Table 1)."""

import contextlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.heap as heap_module
from repro.core.heap import CandidateHeap, HeapEntry, HeapState
from repro.geometry.point import Point
from repro.obs import OBS, MetricsRegistry, observed
from repro.testing.invariants import check_heap_structure, check_heap_transition


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
        check_heap_structure(batched)
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


_LADDER = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def _held_offers(data, capacity, length):
    """Offers drawn against a heap fed by ``add`` as they are drawn.

    Biased towards what the complete-heap shortcut decides: mostly
    certain offers (so heaps complete), offers at exactly ``D_ct`` and
    one float below it, re-offers of held POIs, and a second POI on a
    held POI's location told apart by its payload only.  Returns the
    offers and, per offer, what ``add`` returned.
    """
    reference = CandidateHeap(capacity)
    offers, returns = [], []
    for _ in range(length):
        held = reference.entries()
        kind = data.draw(
            st.sampled_from(["fresh", "held", "at D_ct", "below D_ct", "twin"])
        )
        certain = data.draw(st.sampled_from([True, True, True, False]))
        distance = data.draw(st.sampled_from(_LADDER))
        x = float(data.draw(st.integers(min_value=0, max_value=9)))
        point, payload = Point(x, 0.0), f"poi-{x:g}"
        if kind == "fresh" or not held:
            pass
        elif kind == "held":
            pick = data.draw(st.sampled_from(held))
            point, payload = pick.point, pick.payload
        elif kind == "twin":
            pick = data.draw(st.sampled_from(held))
            point, payload = pick.point, f"{pick.payload}'"
        elif reference.certain_count:
            distance = reference.last_certain_distance()
            if kind == "below D_ct":
                distance = math.nextafter(distance, 0.0)
        offer = (point, payload, distance, certain)
        offers.append(offer)
        returns.append(reference.add(*offer))
    return offers, returns


@contextlib.contextmanager
def _counting_entries():
    """Swap ``HeapEntry`` for a subclass that records every instance."""
    made = []

    class CountedEntry(HeapEntry):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    saved = heap_module.HeapEntry
    heap_module.HeapEntry = CountedEntry
    try:
        yield made
    finally:
        heap_module.HeapEntry = saved


def _held_pairs(heap):
    return {(e.key(), e.certain) for e in heap.entries()}


class TestCompleteHeapShortcut:
    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_a_loop_of_add_on_biased_streams(self, capacity, data):
        length = data.draw(st.integers(min_value=0, max_value=6 * capacity + 8))
        offers, returns = _held_offers(data, capacity, length)
        chunk = data.draw(st.integers(min_value=1, max_value=max(1, length)))
        batched, looped = CandidateHeap(capacity), CandidateHeap(capacity)
        stored = {}

        def batch():
            stored["batch"] = sum(
                batched.add_batch(offers[start : start + chunk])
                for start in range(0, length, chunk)
            )

        def loop():
            stored["loop"] = [looped.add(*offer) for offer in offers]

        with observed(enabled=True):
            by_batch = _offers_snapshot(batch, batched)
            by_loop = _offers_snapshot(loop, looped)
        assert stored["loop"] == returns
        assert stored["batch"] == sum(returns)
        assert batched.entries() == looped.entries()
        assert by_batch == by_loop

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_allocations_equal_insertions(self, capacity, data):
        length = data.draw(st.integers(min_value=0, max_value=6 * capacity + 8))
        offers, _ = _held_offers(data, capacity, length)
        with _counting_entries() as made:
            looped = CandidateHeap(capacity)
            insertions = 0
            for offer in offers:
                before, allocated = _held_pairs(looped), len(made)
                looped.add(*offer)
                inserted = len(_held_pairs(looped) - before)
                assert len(made) - allocated == inserted, offer
                insertions += inserted
            batched = CandidateHeap(capacity)
            allocated = len(made)
            batched.add_batch(offers)
            assert len(made) - allocated == insertions
        assert batched.entries() == looped.entries()

    def test_rejected_offers_allocate_nothing(self):
        with _counting_entries() as made:
            heap = CandidateHeap(2)
            heap.add(*entry(1, 1.0, False))
            heap.add(*entry(2, 2.0, False))
            assert len(made) == 2
            # Full of uncertain entries: a farther or tied uncertain offer.
            assert not heap.add(*entry(3, 2.5, False))
            assert not heap.add(*entry(4, 2.0, False))
            assert len(made) == 2
            heap.add(*entry(5, 0.5, True))
            heap.add(*entry(6, 1.5, True))
            assert heap.is_complete() and len(made) == 4
            # Complete: a certain offer at D_ct, one beyond, an uncertain one.
            assert not heap.add(*entry(7, 1.5, True))
            assert not heap.add(*entry(8, 2.0, True))
            assert not heap.add(*entry(9, 0.1, False))
            assert heap.add_batch([entry(7, 1.5, True), entry(6, 1.5, False)]) == 1
            assert len(made) == 4

    def test_a_complete_heap_settles_offers_without_add(self):
        heap = CandidateHeap(2)
        heap.add_batch([entry(1, 1.0, True), entry(2, 2.0, True)])
        calls = []
        place = heap._add

        def spy(*offer):
            calls.append(offer)
            return place(*offer)

        heap._add = spy
        # At and beyond D_ct: settled by key; closer: placed.
        assert heap.add_batch(
            [entry(2, 2.0, False), entry(3, 2.0, True), entry(4, 9.0, True)]
        ) == 1
        assert calls == []
        assert heap.add_batch([entry(5, 1.5, True)]) == 1
        assert len(calls) == 1
        assert [e.payload for e in heap.entries()] == ["poi-1", "poi-5"]

    def test_a_nan_offer_to_a_complete_heap_is_decided_as_add_decides(self):
        heap, reference = CandidateHeap(1), CandidateHeap(1)
        for target in (heap, reference):
            target.add(*entry(1, 1.0, True))
        nan = entry(2, float("nan"), True)
        assert heap.add_batch([nan]) == int(reference.add(*nan))
        assert heap.entries() == reference.entries()


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
            before = heap.state()
            heap.add(Point(float(x), 0.0), f"poi-{x}", dist, certain)
            check_heap_transition(before, heap.state())
            check_heap_structure(heap)  # one index key per entry: no duplicates

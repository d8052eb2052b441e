"""Property tests for the Section 3.3 heap state machine.

Random ``add`` sequences are replayed against :class:`CandidateHeap`
while every observed state transition is checked against the legal
transition matrix :data:`repro.testing.invariants.HEAP_TRANSITIONS`,
and a scripted battery realizes every reachable edge of the matrix so
the two stay in lock-step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testing.invariants import (
    HEAP_TRANSITIONS,
    check_heap_structure,
    check_heap_transition,
)
from repro.core.heap import CandidateHeap, HeapState
from repro.geometry.point import Point

# Offers drawn from a small pool of POI identities so sequences contain
# duplicate offers and certain upgrades of uncertain entries.
offer_strategy = st.tuples(
    st.integers(min_value=0, max_value=5),  # POI identity
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.booleans(),  # certain flag
)


def replay(capacity, offers):
    """Run ``offers`` through a heap, returning the observed transitions."""
    heap = CandidateHeap(capacity)
    observed = []
    for poi, distance, certain in offers:
        before = heap.state()
        heap.add(Point(float(poi), 0.0), f"poi-{poi}", distance, certain)
        after = heap.state()
        observed.append((before, after))
        check_heap_structure(heap)
    return observed


class TestTransitionMatrixShape:
    def test_matrix_is_total_over_states(self):
        assert set(HEAP_TRANSITIONS) == set(HeapState)
        for successors in HEAP_TRANSITIONS.values():
            assert successors <= set(HeapState)

    def test_complete_is_absorbing(self):
        assert HEAP_TRANSITIONS[HeapState.COMPLETE] == {HeapState.COMPLETE}

    def test_no_transition_revives_uncertainty_after_completion(self):
        for state, successors in HEAP_TRANSITIONS.items():
            if state is HeapState.COMPLETE:
                assert HeapState.FULL_MIXED not in successors


class TestRandomReplay:
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(offer_strategy, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_observed_transition_is_legal(self, capacity, offers):
        for before, after in replay(capacity, offers):
            check_heap_transition(before, after)

    @given(st.lists(offer_strategy, min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_k1_heaps_only_visit_k1_states(self, offers):
        reachable = {
            HeapState.EMPTY,
            HeapState.FULL_UNCERTAIN,
            HeapState.COMPLETE,
        }
        for before, after in replay(1, offers):
            assert {before, after} <= reachable


class TestEveryEdgeIsRealizable:
    """Drive the heap through each matrix edge with a concrete script.

    ``EMPTY -> EMPTY`` is the one legal-but-unreachable edge (an offer to
    an empty heap is always stored); every other edge is realized below,
    so the matrix is exactly the reachable relation plus that self-loop.
    """

    def run_script(self, capacity, offers):
        transitions = replay(capacity, offers)
        return {t for t in transitions}

    def o(self, poi, distance, certain):
        return (poi, distance, certain)

    def test_edges_from_empty(self):
        assert (HeapState.EMPTY, HeapState.PARTIAL_UNCERTAIN) in self.run_script(
            2, [self.o(0, 1.0, False)]
        )
        assert (HeapState.EMPTY, HeapState.PARTIAL_CERTAIN) in self.run_script(
            2, [self.o(0, 1.0, True)]
        )
        assert (HeapState.EMPTY, HeapState.FULL_UNCERTAIN) in self.run_script(
            1, [self.o(0, 1.0, False)]
        )
        assert (HeapState.EMPTY, HeapState.COMPLETE) in self.run_script(
            1, [self.o(0, 1.0, True)]
        )

    def test_edges_from_partial_uncertain(self):
        s = HeapState.PARTIAL_UNCERTAIN
        assert (s, s) in self.run_script(
            3, [self.o(0, 1.0, False), self.o(1, 2.0, False)]
        )
        assert (s, HeapState.PARTIAL_MIXED) in self.run_script(
            3, [self.o(0, 2.0, False), self.o(1, 1.0, True)]
        )
        # Upgrade of the only uncertain entry: same POI re-offered certain.
        assert (s, HeapState.PARTIAL_CERTAIN) in self.run_script(
            3, [self.o(0, 1.0, False), self.o(0, 1.0, True)]
        )
        assert (s, HeapState.FULL_UNCERTAIN) in self.run_script(
            2, [self.o(0, 1.0, False), self.o(1, 2.0, False)]
        )
        assert (s, HeapState.FULL_MIXED) in self.run_script(
            2, [self.o(0, 2.0, False), self.o(1, 1.0, True)]
        )

    def test_edges_from_partial_mixed(self):
        s = HeapState.PARTIAL_MIXED
        base = [self.o(0, 1.0, True), self.o(1, 2.0, False)]
        assert (s, s) in self.run_script(4, base + [self.o(2, 3.0, False)])
        assert (s, HeapState.PARTIAL_CERTAIN) in self.run_script(
            4, base + [self.o(1, 2.0, True)]
        )
        assert (s, HeapState.FULL_MIXED) in self.run_script(
            3, base + [self.o(2, 3.0, False)]
        )

    def test_edges_from_partial_certain(self):
        s = HeapState.PARTIAL_CERTAIN
        base = [self.o(0, 1.0, True)]
        assert (s, s) in self.run_script(3, base + [self.o(1, 2.0, True)])
        assert (s, HeapState.PARTIAL_MIXED) in self.run_script(
            3, base + [self.o(1, 2.0, False)]
        )
        assert (s, HeapState.FULL_MIXED) in self.run_script(
            2, base + [self.o(1, 2.0, False)]
        )
        assert (s, HeapState.COMPLETE) in self.run_script(
            2, base + [self.o(1, 2.0, True)]
        )

    def test_edges_from_full_uncertain(self):
        s = HeapState.FULL_UNCERTAIN
        base = [self.o(0, 2.0, False), self.o(1, 3.0, False)]
        # a closer uncertain candidate displaces the farthest one
        assert (s, s) in self.run_script(2, base + [self.o(2, 1.0, False)])
        assert (s, HeapState.FULL_MIXED) in self.run_script(
            2, base + [self.o(2, 1.0, True)]
        )
        assert (s, HeapState.COMPLETE) in self.run_script(
            1, [self.o(0, 2.0, False), self.o(1, 1.0, True)]
        )

    def test_edges_from_full_mixed(self):
        s = HeapState.FULL_MIXED
        base = [self.o(0, 1.0, True), self.o(1, 3.0, False)]
        assert (s, s) in self.run_script(2, base + [self.o(2, 2.0, False)])
        assert (s, HeapState.COMPLETE) in self.run_script(
            2, base + [self.o(2, 2.0, True)]
        )

    def test_edges_from_complete(self):
        s = HeapState.COMPLETE
        base = [self.o(0, 1.0, True), self.o(1, 2.0, True)]
        # farther certain offer is rejected; closer one displaces -- both
        # leave the heap complete.
        assert (s, s) in self.run_script(2, base + [self.o(2, 3.0, True)])
        assert (s, s) in self.run_script(2, base + [self.o(2, 0.5, True)])
        assert (s, s) in self.run_script(2, base + [self.o(2, 0.5, False)])

"""Branch-expanding pruning bounds (Section 3.3).

After ``kNN_single`` and ``kNN_multiple`` leave the heap short of ``k``
certain entries, the heap state determines which bounds can be forwarded
to the server:

===========================  ===========  ===========
Heap state                   upper bound  lower bound
===========================  ===========  ===========
1  full, mixed               last entry   last certain
2  full, only uncertain      last entry   --
3  partial, mixed            --           last certain
4  partial, only certain     --           last certain
5  partial, only uncertain   --           --
6  empty                     --           --
===========================  ===========  ===========

The *upper* bound caps the k-th NN distance (upward pruning of MBRs whose
MINDIST exceeds it); the *lower* bound ``D_ct`` delimits the certain
circle ``C_r`` within which every POI is already known (downward pruning
of MBRs whose MAXDIST falls inside it).
"""

from __future__ import annotations

import math

from repro.core.heap import CandidateHeap, HeapState
from repro.index.knn import PruningBounds

__all__ = ["derive_pruning_bounds"]


def derive_pruning_bounds(heap: CandidateHeap) -> PruningBounds:
    """Map the heap state to the paper's pruning bounds.

    A COMPLETE heap never reaches the server, but for uniformity it maps
    to the same bounds as state 1 (both are valid there).  The state is
    counted on the heap's tally (``bounds.derived``).
    """
    state = heap.state()
    upper = math.inf
    lower = 0.0
    if state in (HeapState.COMPLETE, HeapState.FULL_MIXED, HeapState.FULL_UNCERTAIN):
        last = heap.last_entry_distance()
        if last is not None:
            upper = last
    if state in (
        HeapState.COMPLETE,
        HeapState.FULL_MIXED,
        HeapState.PARTIAL_MIXED,
        HeapState.PARTIAL_CERTAIN,
    ):
        last_certain = heap.last_certain_distance()
        if last_certain is not None:
            lower = last_certain
    heap.tally.bound_states += (state,)
    return PruningBounds(lower=lower, upper=upper)

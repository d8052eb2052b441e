"""The candidate heap ``H`` of Section 3.2.1 (Table 1).

``H`` collects the points of interest discovered while processing peer
caches.  Entries are *certain* (guaranteed members of the true kNN set,
Lemma 3.2 / 3.8) or *uncertain*.  The paper's maintenance rules:

- the size of ``H`` is bounded by the number of queried neighbors ``k``;
- certain entries are kept in ascending distance order, uncertain entries
  likewise after them;
- a newly discovered certain object replaces an uncertain one when the
  heap is full;
- uncertain objects exist only while fewer than ``k`` certain objects are
  known.

A sound verifier gives the heap a stronger structural invariant: any POI
closer to ``Q`` than a certified POI is itself certifiable (its disk is a
subset of the certified one's), so every certain entry precedes every
uncertain entry in distance order.  The class asserts nothing about how
entries were produced, but the property tests in
``tests/test_core_heap.py`` verify the invariant end-to-end.

An offer is decided before anything is allocated: the rules above say
whether it is stored, and only a stored offer builds a
:class:`HeapEntry`.  :meth:`CandidateHeap.add_batch` settles some offers
by their key alone.  A complete heap holds ``k``
certain entries and therefore no uncertain one, so an offer at or beyond
``D_ct`` can displace nothing (ties keep the incumbent): it is stored
exactly when its POI is already held.

After verification the heap is in one of six states (Section 3.3) --
or :attr:`HeapState.COMPLETE` when all ``k`` certain neighbors were found.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.geometry.point import Point
from repro.index.knn import poi_key
from repro.obs import OBS, SennRecord

__all__ = ["CandidateHeap", "HeapEntry", "HeapState"]

_DISTANCE = attrgetter("distance")


class HeapState(enum.Enum):
    """The heap states of Section 3.3 plus the success state."""

    COMPLETE = "complete"  # k certain entries: query fulfilled by peers
    FULL_MIXED = "state-1"  # full, certain + uncertain
    FULL_UNCERTAIN = "state-2"  # full, only uncertain
    PARTIAL_MIXED = "state-3"  # not full, certain + uncertain
    PARTIAL_CERTAIN = "state-4"  # not full, only certain
    PARTIAL_UNCERTAIN = "state-5"  # not full, only uncertain
    EMPTY = "state-6"  # no entries


@dataclass(frozen=True, slots=True)
class HeapEntry:
    """One candidate POI with its distance to the query point."""

    point: Point
    payload: Any
    distance: float
    certain: bool

    def key(self) -> Tuple[float, float, Any]:
        """Dedup identity of the candidate: coordinates plus payload."""
        return poi_key(self.point, self.payload)


class CandidateHeap:
    """The bounded candidate structure ``H``.

    ``capacity`` is the query's ``k``.  Duplicate POIs (the same object
    reported by several peers) are merged, upgrading uncertain entries to
    certain when any report certifies them.

    ``tally`` is the query's :class:`~repro.obs.SennRecord`: the heap
    counts its offers there (``heap.offers``), the verifiers their Lemma
    3.2 / 3.8 outcomes and ``derive_pruning_bounds`` the Section 3.3
    state.  :meth:`flush_tally` publishes it -- ``senn_query`` calls it
    when the query ends, a heap driven on its own calls it once, last.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("heap capacity (k) must be at least 1")
        self.capacity = capacity
        self._certain: List[HeapEntry] = []
        self._uncertain: List[HeapEntry] = []
        self._index: Dict[Tuple[float, float, Any], HeapEntry] = {}
        self.tally = SennRecord()

    def flush_tally(self) -> None:
        """Publish :attr:`tally` and drop it.

        A finished query's heap keeps no record; counting on it
        afterwards raises ``AttributeError``.  ``senn_query`` drops the
        heap itself when it returns: its ``SennResult`` carries the
        answer and the bounds, not the heap.
        """
        tally = self.tally
        del self.tally
        if OBS.enabled:
            tally.flush()

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add(self, point: Point, payload: Any, distance: float, certain: bool) -> bool:
        """Offer a candidate; returns True when it is (now) stored.

        Re-offering a stored POI as certain upgrades it; re-offering as
        uncertain is a no-op.  This is :meth:`add_batch` of one offer.
        """
        return self.add_batch(((point, payload, distance, certain),)) == 1

    def add_batch(
        self, offers: Iterable[Tuple[Point, Any, float, bool]]
    ) -> int:
        """Offer a pre-ordered batch of candidates; returns #stored.

        The batched verifiers hand over one peer's candidates at once;
        :meth:`add` is a batch of one.  Each offer is placed and counted
        on ``tally`` in turn, so a batch that raises has counted exactly
        the offers before the one that raised.

        A complete heap settles an offer by its key: it holds ``k``
        certain entries and no uncertain one, so an offer at or beyond
        ``D_ct`` can displace nothing (ties keep the incumbent) and is
        stored exactly when its POI is already held -- the outcome
        :meth:`_add` would give it, for any offer order.  Other offers
        go through :meth:`_add`.
        """
        tally = self.tally
        place = self._add
        held = self._index
        certain_bucket = self._certain
        capacity = self.capacity
        stored_before = tally.certain_stored + tally.uncertain_stored
        for point, payload, distance, certain in offers:
            if (
                len(certain_bucket) >= capacity
                and distance >= certain_bucket[-1].distance
            ):
                stored = poi_key(point, payload) in held
            else:
                stored = place(point, payload, distance, certain)
            if stored:
                if certain:
                    tally.certain_stored += 1
                else:
                    tally.uncertain_stored += 1
            elif certain:
                tally.certain_rejected += 1
            else:
                tally.uncertain_rejected += 1
        return tally.certain_stored + tally.uncertain_stored - stored_before

    def _add(self, point: Point, payload: Any, distance: float, certain: bool) -> bool:
        if distance < 0.0:
            raise ValueError("distance must be non-negative")
        key = poi_key(point, payload)
        existing = self._index.get(key)
        if existing is not None:
            if existing.certain or not certain:
                return True
            self._remove(key, existing)
        elif not certain and len(self._certain) >= self.capacity:
            # Table 1: uncertain objects exist only while fewer than k
            # certain ones are known, so this offer has no slot to take.
            return False
        return self._insert(key, point, payload, distance, certain)

    def _insert(
        self,
        key: Tuple[float, float, Any],
        point: Point,
        payload: Any,
        distance: float,
        certain: bool,
    ) -> bool:
        """Place a POI ``_add`` found no entry for; False when it does not fit.

        The offer's fate is decided first; only a stored offer builds its
        :class:`HeapEntry`.
        """
        certain_bucket, uncertain_bucket = self._certain, self._uncertain
        if len(certain_bucket) + len(uncertain_bucket) >= self.capacity:
            # Table 1: a certain newcomer displaces the farthest uncertain
            # entry; any other newcomer displaces the farthest entry of
            # its own kind, and only when strictly closer (ties keep the
            # incumbent).  ``_add`` turns uncertain offers away once k
            # certain entries are known, so a full heap that gets one here
            # still holds an uncertain entry to compare it with.
            donor = uncertain_bucket or certain_bucket
            worst = donor[-1]
            if not ((certain and uncertain_bucket) or distance < worst.distance):
                return False
            donor.pop()
            del self._index[worst.key()]
        entry = HeapEntry(point, payload, distance, certain)
        bucket = certain_bucket if certain else uncertain_bucket
        bucket.insert(bisect.bisect_right(bucket, distance, key=_DISTANCE), entry)
        self._index[key] = entry
        return True

    def _remove(self, key: Tuple[float, float, Any], entry: HeapEntry) -> None:
        """Take an uncertain entry out of mid-bucket (it is being upgraded)."""
        bucket = self._uncertain
        for position, held in enumerate(bucket):
            if held is entry:
                del bucket[position]
                break
        del self._index[key]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._certain) + len(self._uncertain)

    def __contains__(self, key: Tuple[float, float, Any]) -> bool:
        return key in self._index

    @property
    def certain_count(self) -> int:
        """Number of entries certified by Lemma 3.2 / Lemma 3.8."""
        return len(self._certain)

    @property
    def uncertain_count(self) -> int:
        """Number of entries held but not yet certified."""
        return len(self._uncertain)

    @property
    def is_full(self) -> bool:
        """True when the heap holds its full capacity of k candidates."""
        return len(self) >= self.capacity

    def is_complete(self) -> bool:
        """True when the kNN query is fulfilled by certain entries alone."""
        return len(self._certain) >= self.capacity

    def is_certain(self, point: Point, payload: Any) -> bool:
        """True when this POI is stored as a certain entry."""
        entry = self._index.get(poi_key(point, payload))
        return entry is not None and entry.certain

    def certain_entries(self) -> List[HeapEntry]:
        """Certain entries in ascending distance order."""
        return list(self._certain)

    def entries(self) -> List[HeapEntry]:
        """All entries: certain first, then uncertain (Table 1 layout)."""
        return list(self._certain) + list(self._uncertain)

    def last_certain_distance(self) -> Optional[float]:
        """``D_ct``: the distance of the last certain entry, if any."""
        return self._certain[-1].distance if self._certain else None

    def last_entry_distance(self) -> Optional[float]:
        """Distance of the last entry in Table 1 order, if any."""
        if self._uncertain:
            return self._uncertain[-1].distance
        if self._certain:
            return self._certain[-1].distance
        return None

    def max_distance(self) -> Optional[float]:
        """Largest distance over all entries (certain or not)."""
        candidates = []
        if self._certain:
            candidates.append(self._certain[-1].distance)
        if self._uncertain:
            candidates.append(self._uncertain[-1].distance)
        return max(candidates) if candidates else None

    def state(self) -> HeapState:
        """Classify the heap per Section 3.3."""
        if self.is_complete():
            return HeapState.COMPLETE
        has_certain = bool(self._certain)
        has_uncertain = bool(self._uncertain)
        if self.is_full:
            return HeapState.FULL_MIXED if has_certain else HeapState.FULL_UNCERTAIN
        if has_certain and has_uncertain:
            return HeapState.PARTIAL_MIXED
        if has_certain:
            return HeapState.PARTIAL_CERTAIN
        if has_uncertain:
            return HeapState.PARTIAL_UNCERTAIN
        return HeapState.EMPTY

    def __repr__(self) -> str:
        return (
            f"CandidateHeap(k={self.capacity}, certain={self.certain_count}, "
            f"uncertain={self.uncertain_count}, state={self.state().value})"
        )

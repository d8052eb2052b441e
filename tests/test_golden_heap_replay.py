"""Golden regression: what seeded offer streams leave in ``CandidateHeap``.

240 streams (capacity 1-8) are regenerated from their seeds and replayed
offer by offer; the return value of every offer, the final ``entries()``
as ``[x, y, payload, distance, certain]`` rows and the final ``state()``
are compared with ``tests/golden/heap_replay.json``.  The streams are
built to hit what the insertion code forks on: the same POI offered
again (as is, upgraded uncertain -> certain, and with a different
distance), exact distance ties between different POIs, certain offers
into a full heap, uncertain offers after the heap is complete, and two
POIs on one location told apart by payload only.

The same streams also go through ``add_batch`` in peer-sized chunks,
which must store the same number of offers and leave the same heap;
there a complete heap settles offers at or beyond ``D_ct`` by key
without calling ``_add``.

The golden file was generated from the insertion code that built a
``HeapEntry`` for every offer except an uncertain one to a complete heap.
Two rewrites since replay it unregenerated: ``_add`` / ``_insert``
decide every offer before allocating, so only a stored offer builds an
entry, and ``add_batch`` gained the complete-heap shortcut.  Regenerate
(only when Table 1's rules change on purpose) with::

    PYTHONPATH=src:. python tests/test_golden_heap_replay.py --regen
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.heap import CandidateHeap
from repro.geometry.point import Point
from repro.index.knn import poi_key

REPLAY_PATH = Path(__file__).parent / "golden" / "heap_replay.json"
STREAM_COUNT = 240

Offer = Tuple[Point, Any, float, bool]


def make_stream(seed: int) -> Tuple[int, List[Offer]]:
    """Capacity and offers of stream ``seed``; a pure function of the seed."""
    rng = random.Random(seed)
    capacity = 1 + seed % 8
    # A small pool makes re-offers common; a quarter-step ladder makes
    # exact ties between different POIs common.
    pool = []
    for index in range(rng.randint(capacity + 1, 3 * capacity + 3)):
        point = Point(float(rng.randint(0, 6)), float(rng.randint(0, 3)))
        payload: Any = index if index % 5 == 4 else f"poi-{index}"
        if rng.random() < 0.5:
            distance = 0.25 * rng.randint(0, 12)
        else:
            distance = rng.uniform(0.0, 3.0)
        pool.append((point, payload, distance))
    # ``style`` shifts the certain share: a sound verifier (certain iff
    # close), a share that grows from 0 to 1 along the stream (later peers
    # certify what earlier ones only reported), mostly certain, or a coin.
    style = seed // 8 % 4
    radius = rng.uniform(0.5, 2.5)
    length = rng.randint(1, 6 * capacity + 8)
    offers: List[Offer] = []
    for position in range(length):
        point, payload, distance = pool[rng.randrange(len(pool))]
        if rng.random() < 0.08:
            distance = 0.25 * rng.randint(0, 12)  # same POI, another distance
        if style == 0:
            certain = distance <= radius
        else:
            certain = rng.random() < (position / length, 0.85, 0.5)[style - 1]
        offers.append((point, payload, distance, certain))
    return capacity, offers


def replay(seed: int) -> Dict[str, Any]:
    """Replay stream ``seed`` through ``add``; the record the golden holds."""
    capacity, offers = make_stream(seed)
    heap = CandidateHeap(capacity)
    returns = "".join("1" if heap.add(*offer) else "0" for offer in offers)
    return {"returns": returns, "entries": _rows(heap), "state": heap.state().value}


def _rows(heap: CandidateHeap) -> List[List[Any]]:
    return [
        [e.point.x, e.point.y, e.payload, e.distance, e.certain]
        for e in heap.entries()
    ]


@pytest.fixture(scope="module")
def pinned() -> List[Dict[str, Any]]:
    streams = json.loads(REPLAY_PATH.read_text())["streams"]
    assert len(streams) == STREAM_COUNT
    return streams


def test_add_replays_the_pinned_streams(pinned) -> None:
    for seed in range(STREAM_COUNT):
        assert replay(seed) == pinned[seed], f"stream {seed}"


def test_add_batch_replays_the_pinned_streams(pinned) -> None:
    for seed in range(STREAM_COUNT):
        capacity, offers = make_stream(seed)
        heap = CandidateHeap(capacity)
        chunk = 1 + seed % 7
        stored = sum(
            heap.add_batch(offers[start : start + chunk])
            for start in range(0, len(offers), chunk)
        )
        assert stored == pinned[seed]["returns"].count("1"), f"stream {seed}"
        assert _rows(heap) == pinned[seed]["entries"], f"stream {seed}"
        assert heap.state().value == pinned[seed]["state"], f"stream {seed}"


def test_streams_reach_every_fork_of_the_insertion_code() -> None:
    seen: Counter = Counter()
    for seed in range(STREAM_COUNT):
        capacity, offers = make_stream(seed)
        heap = CandidateHeap(capacity)
        for point, payload, distance, certain in offers:
            key = poi_key(point, payload)
            if key in heap:
                seen["re-offer"] += 1
                if certain and not heap.is_certain(point, payload):
                    seen["upgrade"] += 1
            else:
                # An exact tie is the case: bisect_right breaks it by arrival.
                stored = [e.distance for e in heap.entries()]
                if distance in stored:
                    seen["tie"] += 1
                if any(e.point == point for e in heap.entries()):
                    seen["shared location"] += 1
                if certain and heap.is_full:
                    seen["certain into full"] += 1
                if not certain and heap.is_complete():
                    seen["uncertain after complete"] += 1
                if not certain and heap.is_full and not heap.is_complete():
                    seen["uncertain into full"] += 1
            heap.add(point, payload, distance, certain)
        seen[heap.state().value] += 1
    for case in (
        "re-offer",
        "upgrade",
        "tie",
        "shared location",
        "certain into full",
        "uncertain after complete",
        "uncertain into full",
    ):
        assert seen[case] >= 100, (case, seen)
    for state in ("complete", "state-1", "state-2", "state-3", "state-4", "state-5"):
        assert seen[state] >= 1, (state, seen)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: PYTHONPATH=src:. python {sys.argv[0]} --regen")
    REPLAY_PATH.write_text(
        json.dumps({"streams": [replay(seed) for seed in range(STREAM_COUNT)]})
        + "\n"
    )
    print(f"wrote {REPLAY_PATH}")

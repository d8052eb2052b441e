"""Golden regression: what a shared wave answers and what it bills.

240 seeded waves of 2-12 requests in one batching cell go through
``BatchExecutor.execute`` on a fresh server each.  Per client the golden
holds the neighbors as ``repr((x, y, payload, distance))``, the amortized
``AccessBreakdown`` and ``batch_size``; per wave the counter's
``history`` and ``total_accesses`` after the wave (a six- or 64-page
LRU pool on two seeds in three, so hits and misses depend on the order
every record was billed in).

The waves are built to hit what a client's bookkeeping forks on: POIs on
a lattice with several on one location, int, float and str payloads
(told apart only by payload where they share a location), a
``known_certain`` prefix of none, some or all ``k`` of the client's
answer, an upper bound below, exactly at and above the k-th distance,
and ``k`` above the POI count.

The golden file was generated from the executor that re-derived each
client's cut per streamed neighbor and rebuilt its answer per use.
When range and window queries were retired their steps left the
workload and the file was regenerated once; the code from before that
retirement writes the same bytes for the reduced workload.
Regenerate (only when the batching contract changes on purpose) with::

    PYTHONPATH=src:. python tests/test_golden_batch_replay.py --regen
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from dataclasses import astuple
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.server import SpatialDatabaseServer
from repro.geometry.point import Point
from repro.index.knn import PruningBounds
from repro.service.batching import BatchExecutor
from repro.service.protocol import KnnRequest

REPLAY_PATH = Path(__file__).parent / "golden" / "batch_replay.json"
WAVE_COUNT = 240
CELL = 0.25
LATTICE = 0.125

Poi = Tuple[Point, Any]


def make_pois(seed: int) -> List[Poi]:
    """The POI set of wave ``seed``; a pure function of the seed."""
    rng = random.Random(seed)
    count = rng.randint(1, 6) if seed % 10 == 9 else rng.randint(30, 160)
    lattice = seed % 2 == 0
    style = seed // 2 % 3
    pois: List[Poi] = []
    for index in range(count):
        if lattice:
            point = Point(LATTICE * rng.randint(0, 16), LATTICE * rng.randint(0, 16))
        else:
            point = Point(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        payload: Any
        if style == 0:
            payload = f"poi-{index}"
        elif style == 1:
            payload = (index * 37) % 1000
        else:
            payload = (f"poi-{index}", index, index + 0.5)[index % 3]
        pois.append((point, payload))
    return pois


def make_requests(seed: int, reference: SpatialDatabaseServer) -> List[KnnRequest]:
    """The wave of ``seed``; ``reference`` gives each request's k-th distance."""
    rng = random.Random(seed * 7919 + 1)
    cx, cy = rng.randint(0, 7), rng.randint(0, 7)
    requests: List[KnnRequest] = []
    for index in range(rng.randint(2, 12)):
        if rng.random() < 0.4:
            query = Point(
                CELL * cx + LATTICE * rng.randint(0, 1),
                CELL * cy + LATTICE * rng.randint(0, 1),
            )
        else:
            query = Point(
                CELL * cx + 0.2499 * rng.random(), CELL * cy + 0.2499 * rng.random()
            )
        k = rng.randint(1, 8)
        truth = reference.knn_query(query, k)
        known = truth[: (0, rng.randint(0, k), k)[rng.randrange(3)]]
        kth = truth[-1].distance
        upper = (math.inf, kth, kth * 0.9, kth * 1.25 + 0.01)[rng.randrange(4)]
        lower = known[-1].distance if known else 0.0
        bounds = PruningBounds(min(lower, upper), upper)
        requests.append(KnnRequest(index + 1, query, k, bounds, tuple(known)))
    return requests


def make_server(pois: List[Poi], seed: int) -> SpatialDatabaseServer:
    return SpatialDatabaseServer.from_points(
        pois, buffer_capacity=(0, 6, 64)[seed % 3]
    )


def replay(seed: int) -> Dict[str, Any]:
    """Run wave ``seed``; the record the golden holds."""
    pois = make_pois(seed)
    requests = make_requests(seed, make_server(pois, seed))
    server = make_server(pois, seed)
    answers = BatchExecutor(server, cell_size=CELL).execute(requests)
    return {
        "clients": [
            {
                "neighbors": [
                    repr((n.point.x, n.point.y, n.payload, n.distance))
                    for n in answer.neighbors
                ],
                "pages": list(astuple(answer.pages)),
                "batch_size": answer.batch_size,
            }
            for answer in answers
        ],
        "history": [list(astuple(entry)) for entry in server.counter.history],
        "total_accesses": server.counter.total_accesses,
    }


@pytest.fixture(scope="module")
def pinned() -> List[Dict[str, Any]]:
    waves = json.loads(REPLAY_PATH.read_text())["waves"]
    assert len(waves) == WAVE_COUNT
    return waves


def test_waves_replay_the_pinned_golden(pinned) -> None:
    for seed in range(WAVE_COUNT):
        assert replay(seed) == pinned[seed], f"wave {seed}"


def test_waves_reach_every_case_the_bookkeeping_forks_on() -> None:
    seen: Counter = Counter()
    for seed in range(WAVE_COUNT):
        pois = make_pois(seed)
        reference = make_server(pois, seed)
        requests = make_requests(seed, reference)
        executor = BatchExecutor(reference, cell_size=CELL)
        assert len({executor.cell_of(r.query) for r in requests}) == 1, seed
        seen[f"batch {min(len(requests), 12) // 4}"] += 1
        if len({p for p, _ in pois}) < len(pois):
            seen["shared location"] += 1
        seen.update(type(payload).__name__ for _, payload in pois)
        for request in requests:
            truth = reference.knn_query(request.query, request.k)
            if request.k > len(pois):
                seen["k above POI count"] += 1
            if request.known_certain:
                seen["known prefix"] += 1
                if len(request.known_certain) == request.k:
                    seen["known fills k"] += 1
            upper, kth = request.bounds.upper, truth[-1].distance
            if math.isinf(upper):
                seen["no upper"] += 1
            elif upper < kth:
                seen["upper below k-th"] += 1
            elif upper == kth:
                seen["upper at k-th"] += 1
            else:
                seen["upper above k-th"] += 1
            if len({n.distance for n in truth}) < len(truth):
                seen["tie in answer"] += 1
    for case, floor in (
        ("batch 0", 20),  # 2-3 requests
        ("batch 3", 20),  # 12
        ("shared location", 100),
        ("str", 100),
        ("int", 100),
        ("float", 50),
        ("k above POI count", 20),
        ("known prefix", 300),
        ("known fills k", 100),
        ("no upper", 200),
        ("upper below k-th", 200),
        ("upper at k-th", 200),
        ("upper above k-th", 200),
        ("tie in answer", 100),
    ):
        assert seen[case] >= floor, (case, seen)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: PYTHONPATH=src:. python {sys.argv[0]} --regen")
    REPLAY_PATH.write_text(
        json.dumps({"waves": [replay(seed) for seed in range(WAVE_COUNT)]}) + "\n"
    )
    print(f"wrote {REPLAY_PATH}")

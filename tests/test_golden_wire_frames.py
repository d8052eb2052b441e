"""Golden regression: the exact bytes of every wire frame.

Protocol v2 (``PROTOCOL_VERSION``) is spoken by every client and server
built from this package; a codec change that moves one byte breaks a
peer that was not rebuilt.  This pins the format byte for byte: a corpus
of 199 messages drawn from a seeded ``random.Random`` and, for each, the
hex of the frame ``encode_message`` produced.  Each entry must encode to
its golden frame and the golden frame must decode back to it.

The corpus covers every message type and every ``ErrorCode``; int
payloads at both ends of the signed 64-bit range, float payloads, empty
and non-ASCII strings; empty and 20-entry neighbor tuples; an infinite
``upper`` bound and ``-0.0`` coordinates; ``k`` / ``max_items`` /
``batch_size`` at 1 and ``0xFFFF``; request and stream ids at 0 and
``0xFFFFFFFF``.

The golden file was generated from the field-by-field codec (one
``_Writer`` / ``_Reader`` call per primitive), before the codec became
one table of precompiled ``struct`` heads.  Range (``0x02``) and window
(``0x03``) requests have since been retired and their entries deleted;
every other entry kept its frame.  Regenerate (only together
with a new ``PROTOCOL_VERSION``) with::

    PYTHONPATH=src:. python tests/test_golden_wire_frames.py --regen
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional

import pytest

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.index.knn import NeighborResult, PruningBounds
from repro.index.pagestats import AccessBreakdown
from repro.service.protocol import (
    Answer,
    ErrorCode,
    ErrorReply,
    KnnRequest,
    Message,
    StreamClose,
    StreamEnd,
    StreamHandle,
    StreamItems,
    StreamOpen,
    StreamPull,
    decode_message,
    encode_message,
)

FRAMES_PATH = Path(__file__).parent / "golden" / "wire_frames.json"
SEED = 25
RANDOM_MESSAGES = 208

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1
U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF
TEXTS = ("", "gas-17", "café", "東京駅", "🚗 ⛽", "a\x00b", "x" * 300)
FLOATS = (0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, math.pi)


def _float(rng: random.Random) -> float:
    if rng.random() < 0.2:
        return rng.choice(FLOATS)
    return rng.uniform(-1e6, 1e6)


def _nonneg(rng: random.Random) -> float:
    return abs(_float(rng))


def _point(rng: random.Random) -> Point:
    return Point(_float(rng), _float(rng))


def _payload(rng: random.Random) -> Any:
    kind = rng.randrange(3)
    if kind == 0:
        if rng.random() < 0.3:
            return rng.choice((I64_MIN, I64_MAX, 0, -1))
        return rng.randint(I64_MIN, I64_MAX)
    if kind == 1:
        return _float(rng)
    if rng.random() < 0.5:
        return rng.choice(TEXTS)
    return "".join(chr(rng.randint(32, 0x2FFF)) for _ in range(rng.randrange(12)))


def _neighbors(rng: random.Random) -> tuple:
    count = rng.choice((0, 0, 1, 3, 8, 20))
    return tuple(
        NeighborResult(_point(rng), _payload(rng), _nonneg(rng))
        for _ in range(count)
    )


def _id(rng: random.Random) -> int:
    return rng.choice((0, U32_MAX, rng.randint(0, U32_MAX)))


def _count(rng: random.Random) -> int:
    return rng.choice((1, U16_MAX, rng.randint(1, U16_MAX)))


def _bounds(rng: random.Random) -> PruningBounds:
    lower = _nonneg(rng) if rng.random() < 0.6 else 0.0
    upper = lower + _nonneg(rng) if rng.random() < 0.5 else math.inf
    return PruningBounds(lower, upper)


def _breakdown(rng: random.Random) -> AccessBreakdown:
    index_nodes, leaf_nodes, data = (rng.randint(0, 50_000) for _ in range(3))
    return AccessBreakdown(
        total=index_nodes + leaf_nodes + data,
        index_nodes=index_nodes,
        leaf_nodes=leaf_nodes,
        data_records=data,
        buffer_hits=rng.randint(0, U32_MAX),
        buffer_misses=rng.randint(0, 1000),
        entries_scanned=rng.randint(0, 10**6),
    )


def _window(rng: random.Random) -> BoundingBox:
    min_x, min_y = _float(rng), _float(rng)
    return BoundingBox(min_x, min_y, min_x + _nonneg(rng), min_y + _nonneg(rng))


def _retired_range(rng: random.Random) -> None:
    """The range request's draws: id, center, radius."""
    _id(rng)
    _point(rng)
    _nonneg(rng)


def _retired_window(rng: random.Random) -> None:
    """The window request's draws: id, window."""
    _id(rng)
    _window(rng)


#: Range (0x02) and window (0x03) requests are retired, but their slots
#: in the rotation still draw what they drew, so every later message of
#: the seeded corpus, and its golden frame, stays as pinned.
RETIRED = (_retired_range, _retired_window)

MAKERS: List[Callable[[random.Random], Optional[Message]]] = [
    lambda r: KnnRequest(_id(r), _point(r), _count(r), _bounds(r), _neighbors(r)),
    *RETIRED,
    lambda r: StreamOpen(_id(r), _point(r)),
    lambda r: StreamPull(_id(r), _id(r), _count(r)),
    lambda r: StreamClose(_id(r), _id(r)),
    lambda r: Answer(_id(r), _neighbors(r), _breakdown(r), _count(r)),
    lambda r: StreamHandle(_id(r), _id(r)),
    lambda r: StreamItems(_id(r), _id(r), _neighbors(r), r.random() < 0.5),
    lambda r: StreamEnd(_id(r), _id(r), _breakdown(r)),
    lambda r: ErrorReply(
        _id(r),
        r.choice(list(ErrorCode)),
        r.choice(TEXTS) if r.random() < 0.5 else str(_payload(r)),
    ),
]


def _edges() -> List[Message]:
    """The hand-picked edge cases, one or more per listed corner."""
    origin = Point(0.0, 0.0)
    zero = AccessBreakdown(0, 0, 0)
    every_payload = tuple(
        NeighborResult(Point(float(i), -0.0), payload, float(i))
        for i, payload in enumerate(
            (I64_MIN, I64_MAX, 0, -1, 0.5, -0.0, 1e308) + TEXTS
        )
    )
    twenty = tuple(
        NeighborResult(Point(i * 0.25, -i * 0.5), f"poi-{i}", i * 0.125)
        for i in range(20)
    )
    edges: List[Message] = [
        ErrorReply(0, code, code.name.lower()) for code in ErrorCode
    ]
    edges += [
        ErrorReply(U32_MAX, ErrorCode.INTERNAL, text) for text in TEXTS
    ]
    edges += [
        KnnRequest(0, Point(-0.0, -0.0), 1),
        KnnRequest(U32_MAX, origin, U16_MAX, PruningBounds(0.5, math.inf)),
        KnnRequest(7, Point(1.5, -0.0), 8, PruningBounds(0.25, 2.0), twenty),
        KnnRequest(8, origin, 3, PruningBounds(0.0, 0.0), every_payload),
        StreamOpen(U32_MAX, Point(-0.0, 1.0)),
        StreamPull(0, 0, 1),
        StreamPull(U32_MAX, U32_MAX, U16_MAX),
        StreamClose(0, U32_MAX),
        Answer(0, (), zero, 1),
        Answer(U32_MAX, twenty, AccessBreakdown(9, 3, 4, 2, 5, 4, 77), U16_MAX),
        Answer(3, every_payload, zero, 2),
        StreamHandle(U32_MAX, 0),
        StreamItems(0, U32_MAX, (), True),
        StreamItems(1, 2, twenty, False),
        StreamEnd(U32_MAX, U32_MAX, AccessBreakdown(3, 1, 1, 1, 0, 0, 0)),
    ]
    return edges


def corpus() -> List[Message]:
    """Every pinned message, in file order; a pure function."""
    rng = random.Random(SEED)
    drawn = [MAKERS[i % len(MAKERS)](rng) for i in range(RANDOM_MESSAGES)]
    return _edges() + [message for message in drawn if message is not None]


def frames() -> List[List[str]]:
    return [
        [type(message).__name__, encode_message(message).hex()]
        for message in corpus()
    ]


@pytest.fixture(scope="module")
def pinned() -> List[List[str]]:
    return json.loads(FRAMES_PATH.read_text())


def test_corpus_is_pinned_in_order(pinned) -> None:
    messages = corpus()
    assert len(messages) == len(pinned) == 199
    assert [type(m).__name__ for m in messages] == [name for name, _ in pinned]


def test_encode_reproduces_every_golden_frame(pinned) -> None:
    for number, (message, (_, golden)) in enumerate(zip(corpus(), pinned)):
        assert encode_message(message).hex() == golden, (number, message)


def test_every_golden_frame_decodes_to_its_message(pinned) -> None:
    for number, (message, (_, golden)) in enumerate(zip(corpus(), pinned)):
        assert decode_message(bytes.fromhex(golden)) == message, number


def test_corpus_reaches_the_listed_corners() -> None:
    messages = corpus()
    by_type = {type(m) for m in messages}
    assert len(by_type) == len(MAKERS) - len(RETIRED)
    assert {m.code for m in messages if isinstance(m, ErrorReply)} == set(ErrorCode)
    neighbors = [
        n
        for m in messages
        for n in getattr(m, "neighbors", ())
        + getattr(m, "items", ())
        + getattr(m, "known_certain", ())
    ]
    payloads = [n.payload for n in neighbors]
    assert I64_MIN in payloads and I64_MAX in payloads
    assert any(isinstance(p, float) for p in payloads)
    texts = [p for p in payloads if isinstance(p, str)]
    texts += [m.message for m in messages if isinstance(m, ErrorReply)]
    assert "" in texts and any(not t.isascii() for t in texts)
    sizes = {
        len(getattr(m, name))
        for m in messages
        for name in ("neighbors", "items", "known_certain")
        if hasattr(m, name)
    }
    assert {0, 20} <= sizes
    knn = [m for m in messages if isinstance(m, KnnRequest)]
    assert any(math.isinf(m.bounds.upper) for m in knn)
    assert any(math.copysign(1.0, n.point.y) < 0 and n.point.y == 0 for n in neighbors)
    counts = {m.k for m in knn}
    counts |= {m.max_items for m in messages if isinstance(m, StreamPull)}
    counts |= {m.batch_size for m in messages if isinstance(m, Answer)}
    assert {1, U16_MAX} <= counts
    ids = {m.request_id for m in messages}
    ids |= {getattr(m, "stream_id", 1) for m in messages}
    assert {0, U32_MAX} <= ids


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: PYTHONPATH=src:. python {sys.argv[0]} --regen")
    rows = ",\n".join(json.dumps(row) for row in frames())
    FRAMES_PATH.write_text(f"[\n{rows}\n]\n")
    print(f"wrote {FRAMES_PATH}")

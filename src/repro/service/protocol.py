"""The query service's wire protocol.

Binary, big-endian, versioned.  Every frame is::

    +-------+---------+----------+------------+- - - - - -+
    | magic | version | msg type | length u32 |  payload  |
    | "RQ"  |   u8    |    u8    | of payload |           |
    +-------+---------+----------+------------+- - - - - -+

A payload is a fixed *head* and at most one *tail*.  The codec is one
table, ``_LAYOUTS``, keyed by message class; a row holds the
:class:`MessageType`, the head as one precompiled ``struct.Struct``
whose last field is the tail's u32 count or byte length, a step from
message to head values and one back.  A neighbor tail is ``count``
records of ``>dddB`` (x, y, distance, payload tag), each followed by
``>q`` (int), ``>d`` (float) or ``>I`` + UTF-8 (str); a text tail is
``length`` bytes of UTF-8.  Each rule (counts at least 1, distances
non-negative, floats finite except the *upper* pruning bound, whose
absent state is ``inf``, ...) is stated once and runs in both
directions; decoding is strict, so it accepts exactly the frames the
encoder produces and raises :class:`ProtocolError` on anything else.
This puts the Section 3.3 bounds and the client's certified partial
result (``known_certain``) on the wire, so a served EINN prunes exactly
like an in-process one.
"""

from __future__ import annotations

import enum
import functools
import math
import struct
from dataclasses import dataclass
from itertools import repeat
from math import isfinite
from operator import attrgetter
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union, cast,
)

from repro.geometry.point import Point
from repro.index.knn import NeighborResult, PruningBounds, Ranked, neighbors_of
from repro.index.pagestats import AccessBreakdown

__all__ = [
    "Answer",
    "ErrorCode",
    "ErrorReply",
    "HEADER_SIZE",
    "KnnRequest",
    "MAX_PAYLOAD",
    "Message",
    "MessageType",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "StreamClose",
    "StreamEnd",
    "StreamHandle",
    "StreamItems",
    "StreamOpen",
    "StreamPull",
    "decode_message",
    "encode_message",
    "parse_header",
]

MAGIC = b"RQ"
PROTOCOL_VERSION = 2  # v2: AccessBreakdown carries entries_scanned

#: Hard cap on a frame's payload size (1 MiB).  Anything larger is
#: rejected at the framing layer, before any allocation proportional to
#: the claimed length.
MAX_PAYLOAD = 1 << 20

_HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = _HEADER.size


class MessageType(enum.IntEnum):
    """Message discriminator carried in the frame header."""

    KNN_REQUEST = 0x01
    # 0x02 and 0x03 (range and window requests) are retired, never reused.
    STREAM_OPEN = 0x04
    STREAM_PULL = 0x05
    STREAM_CLOSE = 0x06
    ANSWER = 0x10
    STREAM_HANDLE = 0x11
    STREAM_ITEMS = 0x12
    STREAM_END = 0x13
    ERROR = 0x1F


class ErrorCode(enum.IntEnum):
    """Service-level error codes carried by :class:`ErrorReply`."""

    MALFORMED = 1
    UNSUPPORTED = 2
    OVERSIZED = 3
    BAD_STREAM = 4
    TIMEOUT = 5
    OVERLOADED = 6
    INTERNAL = 7


class ProtocolError(ValueError):
    """A frame or message violates the protocol.

    ``code`` is the :class:`ErrorCode` a server should reply with (or
    the reason a client refused to encode/decode).
    """

    def __init__(self, message: str, code: ErrorCode = ErrorCode.MALFORMED):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KnnRequest:
    """A kNN query with the client's Section 3.3 partial result."""

    request_id: int
    query: Point
    k: int
    bounds: PruningBounds = PruningBounds()
    known_certain: Tuple[NeighborResult, ...] = ()


@dataclass(frozen=True)
class StreamOpen:
    """Open an incremental nearest-neighbor stream (IER's contract)."""

    request_id: int
    query: Point


@dataclass(frozen=True)
class StreamPull:
    """Pull up to ``max_items`` next neighbors from an open stream."""

    request_id: int
    stream_id: int
    max_items: int


@dataclass(frozen=True)
class StreamClose:
    """Close a stream; its page accesses fold into server history."""

    request_id: int
    stream_id: int


class Answer:
    """A query's neighbors plus its (possibly amortized) page cost.

    The server hands a shared traversal's answer over as ``rows``, the
    :data:`~repro.index.knn.Ranked` rows that ranked it (``neighbors`` is
    then ``None``): the encoder packs them as they are, and ``neighbors``
    is built from them only if read.
    """

    __slots__ = ("request_id", "_neighbors", "breakdown", "batch_size", "rows")

    def __init__(
        self,
        request_id: int,
        neighbors: Optional[Tuple[NeighborResult, ...]],
        breakdown: AccessBreakdown,
        batch_size: int = 1,
        rows: Optional[Sequence[Ranked]] = None,
    ) -> None:
        if neighbors is None and rows is None:
            neighbors = ()
        self.request_id = request_id
        self._neighbors = neighbors
        self.breakdown = breakdown
        self.batch_size = batch_size
        self.rows = rows

    @property
    def neighbors(self) -> Tuple[NeighborResult, ...]:
        """The answer, nearest first (built from ``rows`` on first read)."""
        if self._neighbors is None:
            assert self.rows is not None
            self._neighbors = tuple(neighbors_of(self.rows))
        return self._neighbors

    def _fields(self) -> Tuple[Any, ...]:
        return (self.request_id, self.neighbors, self.breakdown, self.batch_size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Answer):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        request_id, neighbors, breakdown, batch_size = self._fields()
        return (
            f"Answer(request_id={request_id!r}, neighbors={neighbors!r}, "
            f"breakdown={breakdown!r}, batch_size={batch_size!r})"
        )


@dataclass(frozen=True)
class StreamHandle:
    """Reply to :class:`StreamOpen`: the server-side stream id."""

    request_id: int
    stream_id: int


@dataclass(frozen=True)
class StreamItems:
    """Reply to :class:`StreamPull`; ``exhausted`` ends the stream."""

    request_id: int
    stream_id: int
    items: Tuple[NeighborResult, ...]
    exhausted: bool


@dataclass(frozen=True)
class StreamEnd:
    """Reply to :class:`StreamClose`: the stream's own page breakdown."""

    request_id: int
    stream_id: int
    breakdown: AccessBreakdown


@dataclass(frozen=True)
class ErrorReply:
    """The server could not answer ``request_id``."""

    request_id: int
    code: ErrorCode
    message: str


Message = Union[
    KnnRequest,
    StreamOpen,
    StreamPull,
    StreamClose,
    Answer,
    StreamHandle,
    StreamItems,
    StreamEnd,
    ErrorReply,
]


# ----------------------------------------------------------------------
# rules: each is stated once and runs on encode and on decode
# ----------------------------------------------------------------------
_KNOWN_CODES = tuple(ErrorCode)


def _finite(value: float, may_be_infinite: bool = False) -> None:
    """Floats are finite; only the upper pruning bound may be ``inf``."""
    if not math.isfinite(value) and (math.isnan(value) or not may_be_infinite):
        raise ProtocolError(f"{value} is not representable on the wire")


def _at_least(value: float, floor: float, name: str) -> None:
    """Counts are at least 1; distances at least 0."""
    if value < floor:
        raise ProtocolError(f"{name} must be at least {floor}")


def _one_of(value: int, allowed: Tuple[int, ...], name: str) -> None:
    if value not in allowed:
        raise ProtocolError(f"invalid {name}: {value}")


def _consistent(total: int, index_nodes: int, leaf_nodes: int, data: int) -> None:
    if total != index_nodes + leaf_nodes + data:
        raise ProtocolError("inconsistent access breakdown")


_TAG_INT, _TAG_FLOAT, _TAG_STR = 0, 1, 2

#: One neighbor record: x, y, distance, payload tag, then the payload as
#: ``_PAYLOADS[tag]`` (a str's ``>I`` is its UTF-8 length, bytes follow).
_NEIGHBOR = struct.Struct(">dddB")
_PAYLOADS = tuple(struct.Struct(code) for code in (">q", ">d", ">I"))
_RECORDS = tuple(struct.Struct(_NEIGHBOR.format + p.format[1:]) for p in _PAYLOADS)
_SMALLEST_RECORD = _NEIGHBOR.size + _PAYLOADS[_TAG_STR].size


def _pack_text(text: str) -> Tuple[int, bytes]:
    data = text.encode("utf-8")
    if len(data) > MAX_PAYLOAD:
        raise ProtocolError("string too long", ErrorCode.OVERSIZED)
    return len(data), data


def _unpack_text(buf: bytes, pos: int, length: int) -> Tuple[str, int]:
    end = pos + length
    if end > len(buf):
        raise ProtocolError(f"declared length {length} exceeds the payload")
    return str(buf[pos:end], "utf-8"), end


def _payload(payload: Any) -> Tuple[int, Any, bytes]:
    """``(tag, the record's last field, bytes after the record)``."""
    if isinstance(payload, str):
        return (_TAG_STR, *_pack_text(payload))
    if isinstance(payload, int) and not isinstance(payload, bool):
        return _TAG_INT, payload, b""
    if isinstance(payload, float):
        _finite(payload)
        return _TAG_FLOAT, payload, b""
    name = type(payload).__name__
    raise ProtocolError(f"unsupported POI payload type: {name}", ErrorCode.UNSUPPORTED)


def _check_neighbor(x: float, y: float, distance: float) -> None:
    """One test on the common path; the named rules only pick the error."""
    if not (isfinite(x) and isfinite(y) and isfinite(distance) and distance >= 0.0):
        _finite(x)
        _finite(y)
        _finite(distance)
        _at_least(distance, 0.0, "neighbor distance")


_distance = attrgetter("distance")


def _ranked(items: Sequence[NeighborResult]) -> Iterable[Tuple[float, Any, Any]]:
    """Built neighbors as the rows :func:`_pack_records` reads (no tie)."""
    return zip(map(_distance, items), repeat(None), items)


def _pack_records(rows: Iterable[Tuple[float, Any, Any]]) -> Tuple[int, bytes]:
    """Every neighbor tail's encoder: one record per ``(distance, tie,
    source)`` row, the source read for ``.point`` and ``.payload`` only.

    One finiteness test per record (the named rules run only to pick the
    error, if any), and a plain ``str`` payload, the common POI label, is packed
    in place: one ``struct`` call and its UTF-8 bytes.
    """
    parts: List[bytes] = []
    append = parts.append
    text_record = _RECORDS[_TAG_STR].pack
    for distance, _, source in rows:
        point = source.point
        x = point.x
        y = point.y
        # A NaN or an infinity anywhere makes the sum non-finite; so does a
        # finite overflow, which the named rules then let through.
        if not (isfinite(x + y + distance) and distance >= 0.0):
            _check_neighbor(x, y, distance)
        payload = source.payload
        if type(payload) is str:
            data = payload.encode()
            if len(data) > MAX_PAYLOAD:
                raise ProtocolError("string too long", ErrorCode.OVERSIZED)
            append(text_record(x, y, distance, _TAG_STR, len(data)))
        else:
            tag, value, data = _payload(payload)
            append(_RECORDS[tag].pack(x, y, distance, tag, value))
        append(data)
    return len(parts) // 2, b"".join(parts)  # two parts per record


def _unpack_neighbors(buf: bytes, pos: int, count: int) -> Tuple[Any, int]:
    if count > (len(buf) - pos) // _SMALLEST_RECORD:
        raise ProtocolError(f"{count} neighbors cannot fit in the payload")
    items: List[NeighborResult] = []
    for _ in range(count):
        x, y, distance, tag = _NEIGHBOR.unpack_from(buf, pos)
        _check_neighbor(x, y, distance)
        if tag >= len(_PAYLOADS):
            raise ProtocolError(f"unknown payload tag: {tag}")
        pos += _NEIGHBOR.size
        (value,) = _PAYLOADS[tag].unpack_from(buf, pos)
        pos += _PAYLOADS[tag].size
        if tag == _TAG_STR:
            value, pos = _unpack_text(buf, pos, value)
        elif tag == _TAG_FLOAT:
            _finite(value)
        items.append(NeighborResult(Point(x, y), value, distance))
    return tuple(items), pos


#: A tail's encoder (value -> count, bytes) and decoder (-> value, new pos).
_NEIGHBORS = (_pack_records, _unpack_neighbors)
_TEXT = (_pack_text, _unpack_text)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
_Values = Tuple[Any, ...]
_Codec = TypeVar("_Codec", bound=Callable[..., Any])


class _Layout:
    """One row of the table: a message's head, its two steps, its rules."""

    def __init__(
        self, mtype: MessageType, head: str, fields: Callable[[Any], _Values],
        build: Callable[..., Message], tail: Optional[Tuple[Any, Any]] = None,
        rule: Optional[Callable[[_Values], None]] = None, upper: int = -1,
        breakdown: int = -1,
    ) -> None:
        self.mtype, self.fields, self.build = mtype, fields, build
        self.head = struct.Struct(head)
        self.tail, self.rule, self.upper, self.breakdown = tail, rule, upper, breakdown
        # The head's floats are the fields a zeroed head unpacks as 0.0.
        zeros = self.head.unpack(bytes(self.head.size))
        self.floats = [i for i, v in enumerate(zeros) if isinstance(v, float)]

    def check(self, values: _Values) -> None:
        """Run the row's rules over head values, in either direction."""
        for index in self.floats:
            _finite(values[index], index == self.upper)
        if self.breakdown >= 0:
            _consistent(*values[self.breakdown : self.breakdown + 4])
        if self.rule is not None:
            self.rule(values)


_ids = attrgetter("request_id", "stream_id")
_breakdown = attrgetter("total", "index_nodes", "leaf_nodes", "data_records",
                        "buffer_hits", "buffer_misses", "entries_scanned")


_LAYOUTS: Dict[type, _Layout] = {
    KnnRequest: _Layout(
        MessageType.KNN_REQUEST, ">IddHddI",
        lambda m: (m.request_id, m.query.x, m.query.y, m.k,
                   m.bounds.lower, m.bounds.upper, _ranked(m.known_certain)),
        lambda rid, x, y, k, lower, upper, known: KnnRequest(
            rid, Point(x, y), k, PruningBounds(lower, upper), known),
        _NEIGHBORS, lambda v: _at_least(v[3], 1, "k"), upper=5,
    ),
    StreamOpen: _Layout(
        MessageType.STREAM_OPEN, ">Idd",
        lambda m: (m.request_id, m.query.x, m.query.y),
        lambda rid, x, y: StreamOpen(rid, Point(x, y)),
    ),
    StreamPull: _Layout(
        MessageType.STREAM_PULL, ">IIH",
        attrgetter("request_id", "stream_id", "max_items"), StreamPull,
        rule=lambda v: _at_least(v[2], 1, "max_items"),
    ),
    StreamClose: _Layout(MessageType.STREAM_CLOSE, ">II", _ids, StreamClose),
    Answer: _Layout(
        MessageType.ANSWER, ">IH7II",
        lambda m: (m.request_id, m.batch_size, *_breakdown(m.breakdown),
                   m.rows if m.rows is not None else _ranked(m.neighbors)),
        lambda rid, batch, *b: Answer(rid, b[7], AccessBreakdown(*b[:7]), batch),
        _NEIGHBORS, lambda v: _at_least(v[1], 1, "batch_size"), breakdown=2,
    ),
    StreamHandle: _Layout(MessageType.STREAM_HANDLE, ">II", _ids, StreamHandle),
    StreamItems: _Layout(
        MessageType.STREAM_ITEMS, ">IIBI",
        lambda m: (m.request_id, m.stream_id, 1 if m.exhausted else 0, _ranked(m.items)),
        lambda rid, sid, flag, items: StreamItems(rid, sid, items, flag == 1),
        _NEIGHBORS, lambda v: _one_of(v[2], (0, 1), "exhausted flag"),
    ),
    StreamEnd: _Layout(
        MessageType.STREAM_END, ">II7I",
        lambda m: (m.request_id, m.stream_id, *_breakdown(m.breakdown)),
        lambda rid, sid, *b: StreamEnd(rid, sid, AccessBreakdown(*b)),
        breakdown=2,
    ),
    ErrorReply: _Layout(
        MessageType.ERROR, ">IHI",
        attrgetter("request_id", "code", "message"),
        lambda rid, code, text: ErrorReply(rid, ErrorCode(code), text),
        _TEXT, lambda v: _one_of(v[1], _KNOWN_CODES, "error code"),
    ),
}
_BY_TYPE = {layout.mtype: layout for layout in _LAYOUTS.values()}


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def _strict(codec: _Codec) -> _Codec:
    """Where what ``struct``, UTF-8 and the message constructors refuse
    (a value out of range, a short head, bad UTF-8) becomes a ProtocolError."""

    @functools.wraps(codec)
    def strict(arg: Any) -> Any:
        try:
            return codec(arg)
        except ProtocolError:
            raise
        except (struct.error, ValueError) as exc:
            raise ProtocolError(f"malformed payload: {exc}") from exc

    return cast(_Codec, strict)


@_strict
def encode_message(message: Message) -> bytes:
    """Encode ``message`` into a complete frame (header + payload)."""
    layout = _LAYOUTS.get(type(message))
    if layout is None:
        raise ProtocolError(
            f"cannot encode {type(message).__name__}", ErrorCode.UNSUPPORTED
        )
    values = layout.fields(message)
    layout.check(values)
    if layout.tail is None:
        payload = layout.head.pack(*values)
    else:
        count, body = layout.tail[0](values[-1])
        payload = layout.head.pack(*values[:-1], count) + body
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD",
            ErrorCode.OVERSIZED,
        )
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, layout.mtype, len(payload)) + payload


def parse_header(header: bytes) -> Tuple[MessageType, int]:
    """Validate a frame header; returns ``(message type, payload length)``.

    Raises :class:`ProtocolError` on bad magic, unknown version, unknown
    message type or a payload length above :data:`MAX_PAYLOAD` -- the
    length check happens *here*, before any caller allocates a buffer of
    the claimed size.
    """
    if len(header) != HEADER_SIZE:
        raise ProtocolError(f"header must be {HEADER_SIZE} bytes")
    magic, version, raw_type, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic: {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version: {version}", ErrorCode.UNSUPPORTED
        )
    try:
        mtype = MessageType(raw_type)
    except ValueError as exc:
        raise ProtocolError(
            f"unknown message type: {raw_type}", ErrorCode.UNSUPPORTED
        ) from exc
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds MAX_PAYLOAD",
            ErrorCode.OVERSIZED,
        )
    return mtype, length


@_strict
def decode_message(frame: bytes) -> Message:
    """Decode a complete frame back into its message.

    The inverse of :func:`encode_message`; strict in both directions
    (``decode(encode(m)) == m`` and any bit-level corruption that
    changes the structure raises).
    """
    if len(frame) < HEADER_SIZE:
        raise ProtocolError("frame shorter than header")
    mtype, length = parse_header(frame[:HEADER_SIZE])
    if len(frame) - HEADER_SIZE != length:
        raise ProtocolError(
            f"declared payload length {length} != actual {len(frame) - HEADER_SIZE}"
        )
    layout = _BY_TYPE[mtype]
    values = layout.head.unpack_from(frame, HEADER_SIZE)
    layout.check(values)
    pos = HEADER_SIZE + layout.head.size
    if layout.tail is not None:
        tail, pos = layout.tail[1](frame, pos, values[-1])
        values = (*values[:-1], tail)
    if pos < len(frame):
        raise ProtocolError(f"{len(frame) - pos} trailing bytes after payload")
    return layout.build(*values)

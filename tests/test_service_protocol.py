"""Tests for repro.service.protocol: framing, codecs, strictness.

The protocol promises ``decode(encode(m)) == m`` for every message and
a :class:`ProtocolError` for anything else -- truncation, trailing
bytes, bad magic, unknown versions/types/tags, NaN coordinates and
oversized payloads.  The property tests drive the round-trip over
generated messages; the example tests pin each rejection path.
"""

import math
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.index.knn import NeighborResult, PruningBounds
from repro.index.pagestats import AccessBreakdown
from repro.service.protocol import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    Answer,
    ErrorCode,
    ErrorReply,
    KnnRequest,
    MessageType,
    ProtocolError,
    StreamClose,
    StreamEnd,
    StreamHandle,
    StreamItems,
    StreamOpen,
    StreamPull,
    decode_message,
    encode_message,
    parse_header,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)
nonneg = st.floats(
    allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1e9
)
request_ids = st.integers(min_value=0, max_value=0xFFFFFFFF)
stream_ids = st.integers(min_value=0, max_value=0xFFFFFFFF)
small_counts = st.integers(min_value=1, max_value=0xFFFF)

points = st.builds(Point, finite, finite)
payloads = st.one_of(
    st.integers(min_value=-(1 << 62), max_value=1 << 62),
    finite,
    st.text(max_size=40),
)
neighbors = st.builds(NeighborResult, points, payloads, nonneg)
neighbor_tuples = st.tuples() | st.lists(neighbors, max_size=6).map(tuple)

bounds = st.builds(
    lambda lower, upper_pad, has_upper: PruningBounds(
        lower, lower + upper_pad if has_upper else math.inf
    ),
    nonneg,
    nonneg,
    st.booleans(),
)


@st.composite
def breakdowns(draw):
    index_nodes = draw(st.integers(min_value=0, max_value=10_000))
    leaf_nodes = draw(st.integers(min_value=0, max_value=10_000))
    data = draw(st.integers(min_value=0, max_value=10_000))
    return AccessBreakdown(
        total=index_nodes + leaf_nodes + data,
        index_nodes=index_nodes,
        leaf_nodes=leaf_nodes,
        data_records=data,
        buffer_hits=draw(st.integers(min_value=0, max_value=10_000)),
        buffer_misses=draw(st.integers(min_value=0, max_value=10_000)),
    )


messages = st.one_of(
    st.builds(KnnRequest, request_ids, points, small_counts, bounds, neighbor_tuples),
    st.builds(StreamOpen, request_ids, points),
    st.builds(StreamPull, request_ids, stream_ids, small_counts),
    st.builds(StreamClose, request_ids, stream_ids),
    st.builds(Answer, request_ids, neighbor_tuples, breakdowns(), small_counts),
    st.builds(StreamHandle, request_ids, stream_ids),
    st.builds(StreamItems, request_ids, stream_ids, neighbor_tuples, st.booleans()),
    st.builds(StreamEnd, request_ids, stream_ids, breakdowns()),
    st.builds(ErrorReply, request_ids, st.sampled_from(list(ErrorCode)), st.text(max_size=60)),
)


def frame(mtype: int, payload: bytes, magic=MAGIC, version=PROTOCOL_VERSION):
    return struct.pack(">2sBBI", magic, version, mtype, len(payload)) + payload


# ----------------------------------------------------------------------
# round-trip properties
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(messages)
    def test_decode_inverts_encode(self, message):
        assert decode_message(encode_message(message)) == message

    @settings(max_examples=100, deadline=None)
    @given(messages)
    def test_header_matches_payload(self, message):
        encoded = encode_message(message)
        mtype, length = parse_header(encoded[:HEADER_SIZE])
        assert length == len(encoded) - HEADER_SIZE
        assert isinstance(mtype, MessageType)

    @settings(max_examples=100, deadline=None)
    @given(messages, st.integers(min_value=1, max_value=6))
    def test_truncation_always_raises(self, message, cut):
        encoded = encode_message(message)
        with pytest.raises(ProtocolError):
            decode_message(encoded[: len(encoded) - cut])

    @settings(max_examples=100, deadline=None)
    @given(messages)
    def test_trailing_bytes_always_raise(self, message):
        with pytest.raises(ProtocolError):
            decode_message(encode_message(message) + b"\x00")

    def test_bounds_upper_infinity_survives(self):
        message = KnnRequest(1, Point(0.0, 0.0), 3, PruningBounds(0.5, math.inf))
        assert decode_message(encode_message(message)).bounds.upper == math.inf


# ----------------------------------------------------------------------
# value strictness
# ----------------------------------------------------------------------
class TestValueRejection:
    def test_nan_coordinate_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(StreamOpen(1, Point(float("nan"), 0.0)))

    def test_nan_rejected_on_decode(self):
        encoded = bytearray(encode_message(StreamOpen(1, Point(1.0, 2.0))))
        nan = struct.pack(">d", float("nan"))
        encoded[HEADER_SIZE + 4 : HEADER_SIZE + 12] = nan
        with pytest.raises(ProtocolError):
            decode_message(bytes(encoded))

    def test_infinite_coordinate_rejected(self):
        with pytest.raises(ProtocolError):
            encode_message(StreamOpen(1, Point(math.inf, 0.0)))

    def test_infinite_lower_bound_rejected(self):
        message = KnnRequest(
            1, Point(0.0, 0.0), 1, PruningBounds(math.inf, math.inf)
        )
        with pytest.raises(ProtocolError):
            encode_message(message)

    def test_negative_neighbor_distance_rejected(self):
        bad = NeighborResult(Point(0.0, 0.0), "p", -1.0)
        with pytest.raises(ProtocolError):
            encode_message(Answer(1, (bad,), AccessBreakdown(0, 0, 0), 1))

    def test_bool_payload_rejected(self):
        bad = NeighborResult(Point(0.0, 0.0), True, 1.0)
        with pytest.raises(ProtocolError) as excinfo:
            encode_message(StreamItems(1, 1, (bad,), False))
        assert excinfo.value.code is ErrorCode.UNSUPPORTED

    def test_unsupported_payload_type_rejected(self):
        bad = NeighborResult(Point(0.0, 0.0), object(), 1.0)
        with pytest.raises(ProtocolError) as excinfo:
            encode_message(StreamItems(1, 1, (bad,), False))
        assert excinfo.value.code is ErrorCode.UNSUPPORTED

    def test_zero_k_rejected(self):
        with pytest.raises(ProtocolError):
            encode_message(KnnRequest(1, Point(0.0, 0.0), 0))

    def test_inconsistent_breakdown_rejected_on_decode(self):
        message = StreamEnd(1, 1, AccessBreakdown(0, 0, 0))
        encoded = bytearray(encode_message(message))
        # total lives right after request_id + stream_id in the payload.
        encoded[HEADER_SIZE + 8 : HEADER_SIZE + 12] = struct.pack(">I", 99)
        with pytest.raises(ProtocolError):
            decode_message(bytes(encoded))

    def test_unknown_error_code_rejected_on_decode(self):
        encoded = bytearray(encode_message(ErrorReply(1, ErrorCode.INTERNAL, "x")))
        encoded[HEADER_SIZE + 4 : HEADER_SIZE + 6] = struct.pack(">H", 999)
        with pytest.raises(ProtocolError):
            decode_message(bytes(encoded))


# ----------------------------------------------------------------------
# framing strictness
# ----------------------------------------------------------------------
class TestFraming:
    def test_bad_magic(self):
        with pytest.raises(ProtocolError):
            parse_header(frame(MessageType.STREAM_CLOSE, b"", magic=b"XX")[:HEADER_SIZE])

    def test_unknown_version(self):
        header = frame(MessageType.STREAM_CLOSE, b"", version=42)[:HEADER_SIZE]
        with pytest.raises(ProtocolError) as excinfo:
            parse_header(header)
        assert excinfo.value.code is ErrorCode.UNSUPPORTED

    def test_unknown_message_type(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_header(frame(0x7E, b"")[:HEADER_SIZE])
        assert excinfo.value.code is ErrorCode.UNSUPPORTED

    @pytest.mark.parametrize("retired", [0x02, 0x03])
    def test_retired_message_types_are_unknown(self, retired):
        """0x02 and 0x03 (range and window requests) are not reused."""
        with pytest.raises(ProtocolError) as excinfo:
            parse_header(frame(retired, b"")[:HEADER_SIZE])
        assert excinfo.value.code is ErrorCode.UNSUPPORTED

    def test_oversized_declared_length_rejected_before_allocation(self):
        header = struct.pack(
            ">2sBBI", MAGIC, PROTOCOL_VERSION, int(MessageType.ANSWER), MAX_PAYLOAD + 1
        )
        with pytest.raises(ProtocolError) as excinfo:
            parse_header(header)
        assert excinfo.value.code is ErrorCode.OVERSIZED

    def test_short_header_rejected(self):
        with pytest.raises(ProtocolError):
            parse_header(b"RQ\x01")
        with pytest.raises(ProtocolError):
            decode_message(b"RQ")

    def test_length_mismatch_rejected(self):
        encoded = encode_message(StreamClose(1, 2))
        with pytest.raises(ProtocolError):
            decode_message(encoded + b"\xff\xff")

    def test_oversized_payload_rejected_on_encode(self):
        message = ErrorReply(1, ErrorCode.INTERNAL, "x" * (MAX_PAYLOAD + 1))
        with pytest.raises(ProtocolError) as excinfo:
            encode_message(message)
        assert excinfo.value.code is ErrorCode.OVERSIZED

    def test_garbage_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(frame(MessageType.KNN_REQUEST, b"\x01\x02\x03"))


# ----------------------------------------------------------------------
# hostile bytes
# ----------------------------------------------------------------------
def decode_or_reject(data: bytes):
    """Decode ``data``; a decoded message must re-encode to ``data``.

    Anything but a message or a :class:`ProtocolError` fails the test,
    and so does a message whose frame differs from the bytes it came
    from: the decoder accepts canonical frames only.
    """
    try:
        message = decode_message(data)
    except ProtocolError:
        return None
    assert encode_message(message) == data
    return message


def payload_of(message) -> bytes:
    return encode_message(message)[HEADER_SIZE:]


def reframe(message, payload: bytes) -> bytes:
    """A frame of ``message``'s type around ``payload``, length fixed up."""
    mtype, _ = parse_header(encode_message(message)[:HEADER_SIZE])
    return frame(mtype, payload)


class TestHostileBytes:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(MessageType)), st.binary(max_size=120))
    def test_arbitrary_payload_under_every_header(self, mtype, payload):
        decode_or_reject(frame(mtype, payload))

    @settings(max_examples=200, deadline=None)
    @given(messages, st.data())
    def test_byte_flips(self, message, data):
        encoded = bytearray(encode_message(message))
        flips = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(encoded) - 1),
                    st.integers(min_value=1, max_value=255),
                ),
                min_size=1,
                max_size=4,
            )
        )
        for position, mask in flips:
            encoded[position] ^= mask
        decode_or_reject(bytes(encoded))

    @settings(max_examples=100, deadline=None)
    @given(messages, st.data(), st.sampled_from(list(MessageType)))
    def test_truncation_with_the_length_fixed_up(self, message, data, mtype):
        payload = payload_of(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        with pytest.raises(ProtocolError):
            decode_message(reframe(message, payload[:cut]))
        decode_or_reject(frame(mtype, payload[:cut]))

    @settings(max_examples=100, deadline=None)
    @given(messages, st.binary(min_size=1, max_size=40))
    def test_appended_bytes_with_the_length_fixed_up(self, message, extra):
        with pytest.raises(ProtocolError):
            decode_message(reframe(message, payload_of(message) + extra))

    @pytest.mark.parametrize(
        "message, offset",
        [
            # Each offset is where the tail's u32 count / length sits.
            (Answer(1, (), AccessBreakdown(0, 0, 0), 1), 4 + 2 + 7 * 4),
            (StreamItems(1, 2, (), False), 4 + 4 + 1),
            (KnnRequest(1, Point(0.0, 0.0), 1), 4 + 16 + 2 + 16),
            (ErrorReply(1, ErrorCode.INTERNAL, ""), 4 + 2),
        ],
    )
    def test_huge_declared_count_over_an_empty_tail_raises_at_once(
        self, message, offset
    ):
        payload = bytearray(payload_of(message))
        assert payload[offset : offset + 4] == b"\x00\x00\x00\x00"
        payload[offset : offset + 4] = b"\xff\xff\xff\xff"
        started = time.perf_counter()
        with pytest.raises(ProtocolError):
            decode_message(reframe(message, bytes(payload)))
        assert time.perf_counter() - started < 0.5


# ----------------------------------------------------------------------
# the record packer against a field-by-field reference
# ----------------------------------------------------------------------
class Label(str):
    """A ``str`` subclass: packed like any string, off the plain-str path."""


def reference_records(items) -> bytes:
    """Neighbor records written field by field, as the module doc states
    the format: ``>dddB`` then ``>q`` / ``>d`` / ``>I`` + UTF-8."""
    out = b""
    for n in items:
        out += struct.pack(">d", n.point.x) + struct.pack(">d", n.point.y)
        out += struct.pack(">d", n.distance)
        if isinstance(n.payload, str):
            data = n.payload.encode("utf-8")
            out += struct.pack(">B", 2) + struct.pack(">I", len(data)) + data
        elif isinstance(n.payload, float):
            out += struct.pack(">B", 1) + struct.pack(">d", n.payload)
        else:
            out += struct.pack(">B", 0) + struct.pack(">q", n.payload)
    return out


I63 = (1 << 63) - 1
SUBNORMALS = [5e-324, -5e-324, 2.2250738585072009e-308, -1.1125369292536007e-308]
edge_floats = st.sampled_from([0.0, -0.0, *SUBNORMALS]) | st.floats(
    allow_nan=False, allow_infinity=False
)
edge_payloads = st.one_of(
    st.sampled_from(["", "é", "東京 🚗", Label(""), Label("poi-7")]),
    st.text(max_size=30),
    st.text(max_size=30).map(Label),
    st.sampled_from([I63, -I63, 0]),
    st.integers(min_value=-I63, max_value=I63),
    edge_floats,
)
edge_neighbors = st.builds(
    NeighborResult,
    st.builds(Point, edge_floats, edge_floats),
    edge_payloads,
    st.sampled_from([0.0, -0.0, *SUBNORMALS[::2]]) | nonneg,
)
ZERO = AccessBreakdown(0, 0, 0)


def _tail(message) -> bytes:
    """The bytes after ``message``'s head: its neighbor records."""
    heads = {Answer: 38, StreamItems: 13, KnnRequest: 42}
    return encode_message(message)[HEADER_SIZE + heads[type(message)] :]


def _every_neighbor_frame(items):
    """The frames that carry neighbor records, each holding ``items``."""
    rows = [(n.distance, None, n) for n in items]
    return [
        Answer(1, tuple(items), ZERO, 1),
        Answer(1, None, ZERO, 1, rows),
        StreamItems(1, 2, tuple(items), True),
        KnnRequest(1, Point(0.0, 0.0), 1, PruningBounds(), tuple(items)),
    ]


class TestRecordPacker:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(edge_neighbors, max_size=6))
    def test_bytes_equal_the_field_by_field_reference(self, items):
        expected = reference_records(items)
        for message in _every_neighbor_frame(items):
            assert _tail(message) == expected, type(message).__name__

    def test_finite_values_whose_sum_overflows_still_pack(self):
        items = [NeighborResult(Point(1.7e308, 1.7e308), "far", 1.7e308)]
        for message in _every_neighbor_frame(items):
            assert _tail(message) == reference_records(items)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(edge_neighbors, max_size=6))
    def test_rows_decode_to_the_neighbors_they_rank(self, items):
        rows = [(n.distance, None, n) for n in items]
        decoded = decode_message(encode_message(Answer(4, None, ZERO, 2, rows)))
        assert decoded == Answer(4, tuple(items), ZERO, 2)

    @pytest.mark.parametrize(
        "bad, code, text",
        [
            (NeighborResult(Point(math.nan, 0.0), "p", 1.0), ErrorCode.MALFORMED,
             "nan is not representable on the wire"),
            (NeighborResult(Point(0.0, math.inf), "p", 1.0), ErrorCode.MALFORMED,
             "inf is not representable on the wire"),
            (NeighborResult(Point(0.0, 0.0), "p", -math.inf), ErrorCode.MALFORMED,
             "-inf is not representable on the wire"),
            (NeighborResult(Point(0.0, 0.0), 7, math.nan), ErrorCode.MALFORMED,
             "nan is not representable on the wire"),
            (NeighborResult(Point(0.0, 0.0), "p", -1.0), ErrorCode.MALFORMED,
             "neighbor distance must be at least 0.0"),
            (NeighborResult(Point(math.nan, 0.0), True, 1.0), ErrorCode.MALFORMED,
             "nan is not representable on the wire"),
            (NeighborResult(Point(0.0, 0.0), True, 1.0), ErrorCode.UNSUPPORTED,
             "unsupported POI payload type: bool"),
            (NeighborResult(Point(0.0, 0.0), math.inf, 1.0), ErrorCode.MALFORMED,
             "inf is not representable on the wire"),
            (NeighborResult(Point(0.0, 0.0), "x" * (MAX_PAYLOAD + 1), 1.0),
             ErrorCode.OVERSIZED, "string too long"),
            (NeighborResult(Point(0.0, 0.0), Label("x" * (MAX_PAYLOAD + 1)), 1.0),
             ErrorCode.OVERSIZED, "string too long"),
        ],
    )
    def test_bad_records_raise_the_same_error_in_every_frame(self, bad, code, text):
        good = NeighborResult(Point(1.0, 1.0), "fine", 0.5)
        for message in _every_neighbor_frame([good, bad]):
            with pytest.raises(ProtocolError) as excinfo:
                encode_message(message)
            assert (excinfo.value.code, str(excinfo.value)) == (code, text)

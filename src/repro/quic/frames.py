"""QUIC frame codecs, including the Wira ``Hx_QoS`` frame.

Implemented frame types (a working subset of RFC 9000 plus the paper's
extension):

====================  ======  =====================================
Frame                 Type    Role in the reproduction
====================  ======  =====================================
PADDING               0x00    datagram size normalisation
PING                  0x01    PTO probes
ACK                   0x02    loss recovery / RTT / delivery rate
CRYPTO                0x06    handshake messages (CHLO/REJ/SHLO)
STREAM                0x08-f  live-streaming payload
HANDSHAKE_DONE        0x1e    handshake confirmation
HX_QOS                0x1f    Wira transport-cookie synchronisation
====================  ======  =====================================

The ``Hx_QoS`` frame follows §IV-B: a sequence of
``<HxID, HxLen, Hx_QoS_Value>`` triples.  Standard HxIDs are defined in
:class:`HxId`; the *sealed* triple carries the server-encrypted cookie
blob that clients store and echo without being able to read
(see :mod:`repro.core.cookie_crypto`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, List, Sequence, Tuple, Union

from repro.quic.varint import decode_varint, encode_varint


class FrameParseError(ValueError):
    """Raised when a packet payload cannot be parsed into frames."""


class FrameType(enum.IntEnum):
    PADDING = 0x00
    PING = 0x01
    ACK = 0x02
    CRYPTO = 0x06
    STREAM_BASE = 0x08
    HANDSHAKE_DONE = 0x1E
    HX_QOS = 0x1F  # paper §IV-B: "whose 'type' is set to 0x1f"


class HxId(enum.IntEnum):
    """Identifiers for Hx_QoS triples carried in an Hx_QoS frame."""

    MIN_RTT_US = 0x01  # minimum RTT observed, microseconds
    MAX_BW_BPS = 0x02  # maximum delivery rate observed, bits/second
    TIMESTAMP_MS = 0x03  # server clock at measurement, milliseconds
    SEALED = 0x10  # opaque server-encrypted cookie blob


# Frame-type bytes as plain constants: the codec runs once per packet and
# an ``IntEnum`` member lookup plus ``bytes([...])`` per frame showed up in
# the per-packet ledger.  ``FrameType`` stays the documented registry.
_PADDING = int(FrameType.PADDING)
_PING = int(FrameType.PING)
_ACK = int(FrameType.ACK)
_CRYPTO = int(FrameType.CRYPTO)
_STREAM_FIRST = int(FrameType.STREAM_BASE)
_STREAM_LAST = _STREAM_FIRST | 0x07
_HANDSHAKE_DONE = int(FrameType.HANDSHAKE_DONE)
_HX_QOS = int(FrameType.HX_QOS)

_PING_BYTES = bytes([_PING])
_ACK_BYTES = bytes([_ACK])
_CRYPTO_BYTES = bytes([_CRYPTO])
# STREAM always carries OFF|LEN (0x04|0x02); FIN is bit 0x01.
_STREAM_BYTES = bytes([_STREAM_FIRST | 0x04 | 0x02])
_STREAM_FIN_BYTES = bytes([_STREAM_FIRST | 0x04 | 0x02 | 0x01])
_HANDSHAKE_DONE_BYTES = bytes([_HANDSHAKE_DONE])
_HX_QOS_BYTES = bytes([_HX_QOS])


@dataclass(frozen=True)
class PaddingFrame:
    #: RFC 9002 §2: a packet is ack-eliciting when it carries any frame
    #: other than ACK and PADDING.  Every frame class declares this.
    ACK_ELICITING: ClassVar[bool] = False

    length: int = 1

    def encode(self) -> bytes:
        return b"\x00" * self.length


@dataclass(frozen=True)
class PingFrame:
    ACK_ELICITING: ClassVar[bool] = True

    def encode(self) -> bytes:
        return _PING_BYTES


@dataclass(frozen=True, slots=True)
class AckFrame:
    """ACK with ranges, RFC 9000 §19.3.

    ``ranges`` lists acknowledged packet-number intervals as inclusive
    ``(low, high)`` pairs sorted descending by ``high``; the first range
    must contain ``largest_acked``.
    """

    ACK_ELICITING: ClassVar[bool] = False

    largest_acked: int
    ack_delay_us: int
    ranges: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ValueError("ACK frame needs at least one range")
        if self.ranges[0][1] != self.largest_acked:
            raise ValueError("first range must end at largest_acked")
        for low, high in self.ranges:
            if low > high:
                raise ValueError(f"invalid range ({low}, {high})")

    def encode(self) -> bytes:
        ranges = self.ranges
        first_low, first_high = ranges[0]
        parts = [
            _ACK_BYTES,
            encode_varint(self.largest_acked),
            encode_varint(self.ack_delay_us),
            encode_varint(len(ranges) - 1),
            encode_varint(first_high - first_low),
        ]
        prev_low = first_low
        for low, high in ranges[1:]:
            gap = prev_low - high - 2
            if gap < 0:
                raise ValueError("ACK ranges must be descending and disjoint")
            parts.append(encode_varint(gap))
            parts.append(encode_varint(high - low))
            prev_low = low
        return b"".join(parts)

    def acked_packet_numbers(self) -> List[int]:
        """All packet numbers covered, descending.

        Materialises every range — for tests and debugging only; loss
        recovery walks :attr:`ranges` against what is outstanding.
        """
        numbers: List[int] = []
        for low, high in self.ranges:
            numbers.extend(range(high, low - 1, -1))
        return numbers


@dataclass(frozen=True)
class CryptoFrame:
    ACK_ELICITING: ClassVar[bool] = True

    offset: int
    data: bytes

    def encode(self) -> bytes:
        data = self.data
        return b"".join(
            (_CRYPTO_BYTES, encode_varint(self.offset), encode_varint(len(data)), data)
        )


@dataclass(frozen=True, slots=True)
class StreamFrame:
    ACK_ELICITING: ClassVar[bool] = True

    stream_id: int
    offset: int
    data: bytes
    fin: bool = False

    def encode(self) -> bytes:
        data = self.data
        return b"".join(
            (
                _STREAM_FIN_BYTES if self.fin else _STREAM_BYTES,
                encode_varint(self.stream_id),
                encode_varint(self.offset),
                encode_varint(len(data)),
                data,
            )
        )


@dataclass(frozen=True)
class HandshakeDoneFrame:
    ACK_ELICITING: ClassVar[bool] = True

    def encode(self) -> bytes:
        return _HANDSHAKE_DONE_BYTES


@dataclass(frozen=True)
class HxQosFrame:
    """Wira Hx_QoS frame: ``<HxID, HxLen, Hx_QoS_Value>`` triples."""

    ACK_ELICITING: ClassVar[bool] = True

    triples: Tuple[Tuple[int, bytes], ...]

    def encode(self) -> bytes:
        parts = [_HX_QOS_BYTES, encode_varint(len(self.triples))]
        for hx_id, value in self.triples:
            parts.append(encode_varint(hx_id))
            parts.append(encode_varint(len(value)))
            parts.append(value)
        return b"".join(parts)

    @classmethod
    def from_metrics(
        cls,
        min_rtt: float,
        max_bw_bps: float,
        timestamp: float,
        sealed: bytes = b"",
    ) -> "HxQosFrame":
        """Build a frame from QoS metrics in natural units.

        ``min_rtt``/``timestamp`` are in seconds, ``max_bw_bps`` in bits
        per second.  ``sealed`` optionally appends the encrypted cookie
        blob as a fourth triple.
        """
        triples = [
            (int(HxId.MIN_RTT_US), encode_varint(max(0, int(min_rtt * 1e6)))),
            (int(HxId.MAX_BW_BPS), encode_varint(max(0, int(max_bw_bps)))),
            (int(HxId.TIMESTAMP_MS), encode_varint(max(0, int(timestamp * 1e3)))),
        ]
        if sealed:
            triples.append((int(HxId.SEALED), sealed))
        return cls(tuple(triples))

    def metric(self, hx_id: int) -> bytes:
        """Raw value of the first triple with ``hx_id``.

        Raises :class:`KeyError` if absent.
        """
        for tid, value in self.triples:
            if tid == hx_id:
                return value
        raise KeyError(hx_id)

    def decoded_metrics(self) -> dict:
        """Decode the standard triples into natural units.

        Returns a dict with any of ``min_rtt`` (s), ``max_bw_bps``,
        ``timestamp`` (s) and ``sealed`` (bytes) that are present.
        """
        out: dict = {}
        for tid, value in self.triples:
            if tid == HxId.MIN_RTT_US:
                out["min_rtt"] = decode_varint(value)[0] / 1e6
            elif tid == HxId.MAX_BW_BPS:
                out["max_bw_bps"] = float(decode_varint(value)[0])
            elif tid == HxId.TIMESTAMP_MS:
                out["timestamp"] = decode_varint(value)[0] / 1e3
            elif tid == HxId.SEALED:
                out["sealed"] = value
        return out


Frame = Union[
    PaddingFrame,
    PingFrame,
    AckFrame,
    CryptoFrame,
    StreamFrame,
    HandshakeDoneFrame,
    HxQosFrame,
]


def encode_frames(frames: Sequence[Frame]) -> bytes:
    """Serialise frames back-to-back into a packet payload."""
    return b"".join(frame.encode() for frame in frames)


def parse_frames(data: bytes, offset: int = 0) -> List[Frame]:
    """Parse the frames in ``data`` from ``offset`` to its end.

    Parses in place — frame payloads are slices of ``data`` itself, so a
    ``bytearray`` or ``memoryview`` is coerced to ``bytes`` once, here.
    Runs of PADDING bytes collapse into a single :class:`PaddingFrame`.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    frames: List[Frame] = []
    length = len(data)
    frame: Frame
    while offset < length:
        frame_type = data[offset]
        if _STREAM_FIRST <= frame_type <= _STREAM_LAST:
            frame, offset = _parse_stream(data, offset)
        elif frame_type == _ACK:
            frame, offset = _parse_ack(data, offset + 1)
        elif frame_type == _PADDING:
            run_start = offset
            while offset < length and data[offset] == _PADDING:
                offset += 1
            frame = PaddingFrame(length=offset - run_start)
        elif frame_type == _PING:
            frame = PingFrame()
            offset += 1
        elif frame_type == _CRYPTO:
            frame, offset = _parse_crypto(data, offset + 1)
        elif frame_type == _HANDSHAKE_DONE:
            frame = HandshakeDoneFrame()
            offset += 1
        elif frame_type == _HX_QOS:
            frame, offset = _parse_hx_qos(data, offset + 1)
        else:
            raise FrameParseError(f"unknown frame type 0x{frame_type:02x} at offset {offset}")
        frames.append(frame)
    return frames


def _parse_ack(data: bytes, offset: int) -> Tuple[AckFrame, int]:
    try:
        largest, offset = decode_varint(data, offset)
        ack_delay, offset = decode_varint(data, offset)
        extra_ranges, offset = decode_varint(data, offset)
        first_len, offset = decode_varint(data, offset)
        ranges = [(largest - first_len, largest)]
        prev_low = largest - first_len
        for _ in range(extra_ranges):
            gap, offset = decode_varint(data, offset)
            range_len, offset = decode_varint(data, offset)
            high = prev_low - gap - 2
            low = high - range_len
            if low < 0:
                raise FrameParseError("ACK range below zero")
            ranges.append((low, high))
            prev_low = low
        return AckFrame(largest, ack_delay, tuple(ranges)), offset
    except ValueError as exc:
        raise FrameParseError(f"malformed ACK frame: {exc}") from exc


def _parse_crypto(data: bytes, offset: int) -> Tuple[CryptoFrame, int]:
    try:
        crypto_offset, offset = decode_varint(data, offset)
        data_len, offset = decode_varint(data, offset)
    except ValueError as exc:
        raise FrameParseError(f"malformed CRYPTO frame: {exc}") from exc
    if offset + data_len > len(data):
        raise FrameParseError("CRYPTO frame truncated")
    return CryptoFrame(crypto_offset, data[offset : offset + data_len]), offset + data_len


def _parse_stream(data: bytes, offset: int) -> Tuple[StreamFrame, int]:
    frame_type = data[offset]
    has_offset = bool(frame_type & 0x04)
    has_length = bool(frame_type & 0x02)
    fin = bool(frame_type & 0x01)
    offset += 1
    try:
        stream_id, offset = decode_varint(data, offset)
        stream_offset = 0
        if has_offset:
            stream_offset, offset = decode_varint(data, offset)
        if has_length:
            data_len, offset = decode_varint(data, offset)
        else:
            data_len = len(data) - offset
    except ValueError as exc:
        raise FrameParseError(f"malformed STREAM frame: {exc}") from exc
    if offset + data_len > len(data):
        raise FrameParseError("STREAM frame truncated")
    return (
        StreamFrame(stream_id, stream_offset, data[offset : offset + data_len], fin),
        offset + data_len,
    )


def _parse_hx_qos(data: bytes, offset: int) -> Tuple[HxQosFrame, int]:
    try:
        count, offset = decode_varint(data, offset)
        triples = []
        for _ in range(count):
            hx_id, offset = decode_varint(data, offset)
            hx_len, offset = decode_varint(data, offset)
            if offset + hx_len > len(data):
                raise FrameParseError("Hx_QoS triple truncated")
            triples.append((hx_id, data[offset : offset + hx_len]))
            offset += hx_len
        return HxQosFrame(tuple(triples)), offset
    except ValueError as exc:
        raise FrameParseError(f"malformed Hx_QoS frame: {exc}") from exc

"""Packet-level wire format.

A deliberately simplified—but still byte-exact—take on RFC 9000 headers:

* **long header** (``flags & 0x80``) for INITIAL / 0-RTT / HANDSHAKE
  packets, with the packet type in the low two bits;
* **short header** for 1-RTT packets;
* a fixed 8-byte connection ID;
* the packet number encoded as a full varint rather than RFC 9000's
  truncated-and-reconstructed form — the reproduction does not exercise
  packet-number ambiguity, and full numbers keep the codec honest and
  debuggable (documented substitution, see DESIGN.md).

The payload is a frame sequence (:mod:`repro.quic.frames`).  There is no
AEAD: payload confidentiality is irrelevant to FFCT, while the paper's
cookie-confidentiality requirement is handled where it matters, in
:mod:`repro.core.cookie_crypto`.

:meth:`Packet.encode` is the only serialiser and :meth:`Packet.decode`
the only parser.  Inside one process the sender's :class:`Packet` rides
in place of its bytes (``Datagram.packet``): the sender sizes the
datagram with :meth:`Packet.wire_size`, and the bytes are encoded from
the packet only when something reads ``Datagram.payload`` — the fault
injector's bit flips and a receiver without the parse.  Tier-1 holds the
shortcut to the bytes: the parse of a sent datagram's payload equals the
packet it carries, and ``wire_size()`` equals the encoded length
(``tests/quic/test_datagram_sidecar.py``, ``tests/quic/test_wire_size.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.quic.frames import Frame, parse_frames
from repro.quic.varint import VarintError, decode_varint, encode_varint, varint_size

CONNECTION_ID_BYTES = 8

_LONG_HEADER_BIT = 0x80
_FIXED_BIT = 0x40


class PacketParseError(ValueError):
    """Raised on malformed packet headers or payloads."""


class PacketType(enum.IntEnum):
    INITIAL = 0x00  # carries CHLO / REJ crypto messages
    ZERO_RTT = 0x01  # carries early application data (0-RTT)
    HANDSHAKE = 0x02  # carries SHLO / handshake completion
    ONE_RTT = 0x03  # short header, post-handshake data


_HEADER_FLAGS = {
    packet_type: bytes(
        [
            _FIXED_BIT
            if packet_type == PacketType.ONE_RTT
            else _LONG_HEADER_BIT | _FIXED_BIT | int(packet_type)
        ]
    )
    for packet_type in PacketType
}


@dataclass(slots=True)
class Packet:
    """A parsed or to-be-encoded transport packet.

    A value object: nothing mutates a packet once it is built, and
    equality is field-wise (tests compare a sender's packet with the
    parse of its bytes).  It is not ``frozen`` because one is
    built per packet sent, and a frozen dataclass's ``__init__`` stores
    each field through ``object.__setattr__``, about four times the cost
    of a plain slotted one.  Nothing hashes it.
    """

    packet_type: PacketType
    connection_id: bytes
    packet_number: int
    frames: Tuple[Frame, ...]

    def __post_init__(self) -> None:
        if len(self.connection_id) != CONNECTION_ID_BYTES:
            raise ValueError(f"connection id must be {CONNECTION_ID_BYTES} bytes")
        if self.packet_number < 0:
            raise ValueError("packet number must be non-negative")

    @property
    def is_long_header(self) -> bool:
        return self.packet_type != PacketType.ONE_RTT

    def encode(self) -> bytes:
        parts = [
            _HEADER_FLAGS[self.packet_type],
            self.connection_id,
            encode_varint(self.packet_number),
        ]
        for frame in self.frames:
            parts.append(frame.encode())
        return b"".join(parts)

    def wire_size(self) -> int:
        """``len(self.encode())``, without building the bytes.

        Every frame type answers ``wire_size()`` exactly; the sender sizes
        its datagram with this and leaves the bytes to whoever reads them.
        """
        size = 1 + CONNECTION_ID_BYTES + varint_size(self.packet_number)
        for frame in self.frames:
            size += frame.wire_size()
        return size

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        if not isinstance(data, bytes):
            data = bytes(data)
        if len(data) < 1 + CONNECTION_ID_BYTES + 1:
            raise PacketParseError("datagram too short for a packet header")
        flags = data[0]
        if not flags & _FIXED_BIT:
            raise PacketParseError("fixed bit not set")
        if flags & _LONG_HEADER_BIT:
            packet_type = PacketType(flags & 0x03)
        else:
            packet_type = PacketType.ONE_RTT
        connection_id = data[1 : 1 + CONNECTION_ID_BYTES]
        try:
            packet_number, offset = decode_varint(data, 1 + CONNECTION_ID_BYTES)
        except VarintError as exc:
            raise PacketParseError(f"bad packet number: {exc}") from exc
        frames = tuple(parse_frames(data, offset))
        return cls(packet_type, connection_id, packet_number, frames)

    def ack_eliciting(self) -> bool:
        """True if the packet must be acknowledged (RFC 9002 §2)."""
        for frame in self.frames:
            if frame.ACK_ELICITING:
                return True
        return False

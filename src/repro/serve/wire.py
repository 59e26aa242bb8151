"""Datagram envelope for serve-mode UDP traffic.

One UDP datagram carries one envelope:

====================  =================================================
byte 0                magic ``0x57`` (``'W'``)
byte 1                kind — ``0`` DATA, ``1`` CONTROL
varint                protocol version (currently 1)
varint + bytes        OD-pair routing key (length may be 0)
rest                  payload
====================  =================================================

DATA payloads are :class:`repro.quic.packet.Packet` encodings — the
simulator's exact packet codec, reused unforked; the 8-byte connection
id doubles as the serve flow id, and :func:`peek_connection_id` reads it
without a full parse so the router can forward on a fixed-offset peek.
CONTROL payloads are UTF-8 JSON objects (shard stats/shutdown plumbing).

Decoding is strict and total: any truncated or malformed datagram
raises :class:`EnvelopeError`, and receive paths drop-and-count exactly
like the simulator handles ``Datagram.corrupted`` — never crash, never
guess (the parity is pinned by tests/serve/test_truncation.py).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.quic.packet import CONNECTION_ID_BYTES
from repro.quic.varint import decode_varint, encode_varint

MAGIC = 0x57
WIRE_VERSION = 1

#: Stay well under the 65,507-byte UDP payload ceiling while keeping
#: datagram counts low for replayed media bursts.
MAX_CHUNK_BYTES = 30_000


class EnvelopeError(ValueError):
    """Raised on malformed or truncated serve datagrams."""


class EnvelopeKind(enum.IntEnum):
    DATA = 0
    CONTROL = 1


@dataclass(frozen=True)
class Envelope:
    """One decoded serve datagram."""

    kind: EnvelopeKind
    od_key: bytes
    payload: bytes


#: The fixed bytes every envelope of a kind starts with: magic, kind,
#: protocol version.
_PREFIX = {
    kind: bytes((MAGIC, int(kind))) + encode_varint(WIRE_VERSION) for kind in EnvelopeKind
}


def encode_envelope(kind: EnvelopeKind, od_key: bytes, payload: bytes) -> bytes:
    return b"".join((_PREFIX[kind], encode_varint(len(od_key)), od_key, payload))


def parse_header(data: bytes) -> Tuple[EnvelopeKind, int, int]:
    """``(kind, key start, payload start)`` of an envelope, header only.

    Checks magic, kind, version and key length without touching the
    payload, so its cost is independent of the datagram's size.
    """
    if len(data) < 3:
        raise EnvelopeError("datagram too short for an envelope header")
    if data[0] != MAGIC:
        raise EnvelopeError(f"bad magic byte 0x{data[0]:02x}")
    try:
        kind = EnvelopeKind(data[1])
    except ValueError as exc:
        raise EnvelopeError(f"unknown envelope kind {data[1]}") from exc
    try:
        version, offset = decode_varint(data, 2)
        key_len, offset = decode_varint(data, offset)
    except ValueError as exc:
        raise EnvelopeError(f"malformed envelope header: {exc}") from exc
    if version != WIRE_VERSION:
        raise EnvelopeError(f"unsupported envelope version {version}")
    if offset + key_len > len(data):
        raise EnvelopeError("truncated OD key")
    return kind, offset, offset + key_len


def decode_envelope(data: bytes) -> Envelope:
    kind, key_start, payload_start = parse_header(data)
    return Envelope(kind, bytes(data[key_start:payload_start]), bytes(data[payload_start:]))


def peek_connection_id(data: bytes, start: int = 0) -> bytes:
    """The 8-byte connection (flow) id of a DATA payload at ``start``.

    Mirrors the :class:`~repro.quic.packet.Packet` layout — one flags
    byte, then the connection id — without parsing frames, so the
    router's forwarding cost is independent of payload size.  ``start``
    is the payload's offset in ``data`` (:func:`parse_header`'s third
    value for a whole datagram).
    """
    if len(data) < start + 1 + CONNECTION_ID_BYTES:
        raise EnvelopeError("payload too short for a packet header")
    return data[start + 1 : start + 1 + CONNECTION_ID_BYTES]


__all__ = [
    "Envelope",
    "EnvelopeError",
    "EnvelopeKind",
    "MAGIC",
    "MAX_CHUNK_BYTES",
    "WIRE_VERSION",
    "decode_envelope",
    "encode_envelope",
    "parse_header",
    "peek_connection_id",
]

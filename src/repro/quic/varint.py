"""RFC 9000 §16 variable-length integer encoding.

QUIC varints store 62-bit unsigned integers in 1, 2, 4 or 8 bytes; the two
most-significant bits of the first byte give the length (00→1, 01→2, 10→4,
11→8).  All frame and packet codecs in :mod:`repro.quic` are built on
these helpers.
"""

from __future__ import annotations

from typing import Tuple

MAX_VARINT = (1 << 62) - 1

_PREFIX_TO_LENGTH = {0: 1, 1: 2, 2: 4, 3: 8}


class VarintError(ValueError):
    """Raised on malformed or out-of-range varints."""


def varint_size(value: int) -> int:
    """Number of bytes :func:`encode_varint` will use for ``value``."""
    if value < 0 or value > MAX_VARINT:
        raise VarintError(f"value {value} out of varint range")
    if value < (1 << 6):
        return 1
    if value < (1 << 14):
        return 2
    if value < (1 << 30):
        return 4
    return 8


#: The 64 one-byte encodings — most varints on the wire (frame types,
#: stream ids, range counts, small lengths) are below 64.
_ONE_BYTE = tuple(bytes([value]) for value in range(1 << 6))


def encode_varint(value: int) -> bytes:
    """Encode ``value`` in the shortest RFC 9000 varint form."""
    if 0 <= value < (1 << 6):
        return _ONE_BYTE[value]
    size = varint_size(value)
    if size == 2:
        return (0x4000 | value).to_bytes(2, "big")
    if size == 4:
        return (0x80000000 | value).to_bytes(4, "big")
    out = bytearray(8)
    for i in range(7, -1, -1):
        out[i] = value & 0xFF
        value >>= 8
    out[0] |= 0xC0
    return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.  Raises :class:`VarintError` if the
    buffer is too short.
    """
    if offset >= len(data):
        raise VarintError("buffer exhausted before varint")
    first = data[offset]
    if first < 0x40:
        return first, offset + 1
    length = _PREFIX_TO_LENGTH[first >> 6]
    if offset + length > len(data):
        raise VarintError("buffer truncated inside varint")
    value = first & 0x3F
    for i in range(1, length):
        value = (value << 8) | data[offset + i]
    return value, offset + length

"""Tests for RFC 9000 varint encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic.varint import (
    MAX_VARINT,
    VarintError,
    decode_varint,
    encode_varint,
    varint_size,
)


# RFC 9000 Appendix A.1 worked examples.
RFC_VECTORS = [
    (37, b"\x25"),
    (15293, b"\x7b\xbd"),
    (494878333, b"\x9d\x7f\x3e\x7d"),
    (151288809941952652, b"\xc2\x19\x7c\x5e\xff\x14\xe8\x8c"),
]


@pytest.mark.parametrize("value,encoded", RFC_VECTORS)
def test_rfc9000_vectors_encode(value, encoded):
    assert encode_varint(value) == encoded


@pytest.mark.parametrize("value,encoded", RFC_VECTORS)
def test_rfc9000_vectors_decode(value, encoded):
    assert decode_varint(encoded) == (value, len(encoded))


@pytest.mark.parametrize(
    "value,size",
    [
        (0, 1), (63, 1), (64, 2), (16383, 2), (16384, 4), ((1 << 30) - 1, 4), (1 << 30, 8),
        (MAX_VARINT, 8),
    ],
)
def test_size_boundaries(value, size):
    """Each edge of the table / ``to_bytes`` / loop encoders round-trips
    in exactly ``varint_size`` bytes."""
    assert varint_size(value) == size
    encoded = encode_varint(value)
    assert len(encoded) == size
    assert decode_varint(encoded) == (value, size)


def test_negative_rejected():
    with pytest.raises(VarintError):
        encode_varint(-1)


def test_too_large_rejected():
    with pytest.raises(VarintError):
        encode_varint(MAX_VARINT + 1)


def test_max_value_round_trips():
    assert decode_varint(encode_varint(MAX_VARINT))[0] == MAX_VARINT


def test_decode_with_offset():
    data = b"\xff\xff" + encode_varint(300)
    value, next_offset = decode_varint(data, 2)
    assert value == 300
    assert next_offset == len(data)


def test_decode_empty_buffer():
    with pytest.raises(VarintError):
        decode_varint(b"")


def test_decode_truncated_varint():
    with pytest.raises(VarintError):
        decode_varint(b"\x7b")  # 2-byte prefix but only 1 byte present


@given(st.integers(min_value=0, max_value=MAX_VARINT))
def test_round_trip_property(value):
    encoded = encode_varint(value)
    decoded, offset = decode_varint(encoded)
    assert decoded == value
    assert offset == len(encoded)


@given(st.lists(st.integers(min_value=0, max_value=MAX_VARINT), min_size=1, max_size=20))
def test_concatenated_varints_parse_in_sequence(values):
    blob = b"".join(encode_varint(v) for v in values)
    offset = 0
    decoded = []
    while offset < len(blob):
        value, offset = decode_varint(blob, offset)
        decoded.append(value)
    assert decoded == values


# ----------------------------------------------------------------------
# Non-canonical (non-shortest) encodings.  RFC 9000 §16 permits encoders
# to use any length the value fits in; decoders must accept all of them.
# The serve-mode wire path round-trips values through encode(decode(b)),
# so re-encoding must be canonical (shortest) without changing the value.

_PREFIX_FOR_LENGTH = {1: 0x00, 2: 0x40, 4: 0x80, 8: 0xC0}


def _encode_with_length(value: int, length: int) -> bytes:
    assert value < 1 << (6 + 8 * (length - 1))
    raw = value.to_bytes(length, "big")
    return bytes([raw[0] | _PREFIX_FOR_LENGTH[length]]) + raw[1:]


@pytest.mark.parametrize("length", [2, 4, 8])
def test_decode_accepts_non_shortest_encoding(length):
    encoded = _encode_with_length(37, length)
    assert len(encoded) == length
    assert decode_varint(encoded) == (37, length)


@given(
    st.integers(min_value=0, max_value=MAX_VARINT),
    st.sampled_from([1, 2, 4, 8]),
)
def test_decode_accepts_any_admissible_length(value, length):
    if value >= 1 << (6 + 8 * (length - 1)):
        return  # value does not fit this length; nothing to assert
    encoded = _encode_with_length(value, length)
    decoded, offset = decode_varint(encoded)
    assert decoded == value
    assert offset == length


@given(
    st.integers(min_value=0, max_value=MAX_VARINT),
    st.sampled_from([1, 2, 4, 8]),
)
def test_reencode_canonicalizes(value, length):
    """encode(decode(b)) is the canonical form: same value, minimal size."""
    if value >= 1 << (6 + 8 * (length - 1)):
        return
    non_canonical = _encode_with_length(value, length)
    reencoded = encode_varint(decode_varint(non_canonical)[0])
    assert decode_varint(reencoded)[0] == value
    assert len(reencoded) == varint_size(value)
    assert len(reencoded) <= len(non_canonical)

"""Tests for the serve datagram envelope codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve.wire import (
    MAGIC,
    Envelope,
    EnvelopeError,
    EnvelopeKind,
    decode_envelope,
    encode_envelope,
    parse_header,
    peek_connection_id,
)


class TestRoundTrip:
    def test_data_envelope(self):
        blob = encode_envelope(EnvelopeKind.DATA, b"od-1", b"payload")
        envelope = decode_envelope(blob)
        assert envelope == Envelope(EnvelopeKind.DATA, b"od-1", b"payload")

    def test_control_envelope(self):
        blob = encode_envelope(EnvelopeKind.CONTROL, b"", b'{"op":"stats"}')
        envelope = decode_envelope(blob)
        assert envelope.kind == EnvelopeKind.CONTROL
        assert envelope.payload == b'{"op":"stats"}'

    @given(
        st.sampled_from([EnvelopeKind.DATA, EnvelopeKind.CONTROL]),
        st.binary(max_size=64),
        st.binary(max_size=2048),
    )
    def test_round_trip_property(self, kind, od_key, payload):
        blob = encode_envelope(kind, od_key, payload)
        envelope = decode_envelope(blob)
        assert envelope == Envelope(kind, od_key, payload)
        # The router's header-only parse finds the same key and payload.
        parsed_kind, key_start, payload_start = parse_header(blob)
        assert parsed_kind == kind
        assert blob[key_start:payload_start] == od_key
        assert blob[payload_start:] == payload


class TestStrictDecode:
    def test_empty(self):
        with pytest.raises(EnvelopeError):
            decode_envelope(b"")

    def test_bad_magic(self):
        blob = bytearray(encode_envelope(EnvelopeKind.DATA, b"k", b"p"))
        blob[0] = MAGIC ^ 0xFF
        with pytest.raises(EnvelopeError):
            decode_envelope(bytes(blob))

    def test_bad_kind(self):
        blob = bytearray(encode_envelope(EnvelopeKind.DATA, b"k", b"p"))
        blob[1] = 99
        with pytest.raises(EnvelopeError):
            decode_envelope(bytes(blob))

    def test_truncation_at_every_prefix(self):
        """Header/key truncation must raise; payload truncation decodes
        (the envelope cannot see into the payload — the packet codec
        rejects it, which tests/serve/test_truncation.py pins) but never
        reproduces the original envelope."""
        od_key = b"od-key"
        payload = b"x" * 40
        blob = encode_envelope(EnvelopeKind.DATA, od_key, payload)
        header_len = len(blob) - len(payload)
        original = Envelope(EnvelopeKind.DATA, od_key, payload)
        for cut in range(len(blob)):
            prefix = blob[:cut]
            try:
                envelope = decode_envelope(prefix)
            except EnvelopeError:
                assert cut < header_len, f"full header rejected at cut {cut}"
                continue
            assert cut >= header_len, f"truncated header decoded at cut {cut}"
            assert envelope != original
            assert envelope.payload == payload[: cut - header_len]


class TestPeekConnectionId:
    def test_matches_packet_layout(self):
        from repro.quic.frames import StreamFrame
        from repro.quic.packet import Packet, PacketType

        cid = bytes(range(8))
        packet = Packet(
            PacketType.ONE_RTT, cid, 1, (StreamFrame(0, 0, b"data", False),)
        )
        assert peek_connection_id(packet.encode()) == cid
        blob = encode_envelope(EnvelopeKind.DATA, b"od-7", packet.encode())
        assert peek_connection_id(blob, parse_header(blob)[2]) == cid

    def test_short_payload_raises(self):
        with pytest.raises(EnvelopeError):
            peek_connection_id(b"\x00\x01\x02")

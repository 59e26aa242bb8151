"""Tests for packet headers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic.frames import AckFrame, PaddingFrame, PingFrame, StreamFrame
from repro.quic.packet import CONNECTION_ID_BYTES, Packet, PacketParseError, PacketType

CID = b"\x01\x02\x03\x04\x05\x06\x07\x08"


def test_round_trip_one_rtt():
    packet = Packet(PacketType.ONE_RTT, CID, 42, (StreamFrame(0, 0, b"data"),))
    assert Packet.decode(packet.encode()) == packet


@pytest.mark.parametrize(
    "packet_type", [PacketType.INITIAL, PacketType.ZERO_RTT, PacketType.HANDSHAKE]
)
def test_round_trip_long_header_types(packet_type):
    packet = Packet(packet_type, CID, 7, (PingFrame(),))
    decoded = Packet.decode(packet.encode())
    assert decoded.packet_type == packet_type
    assert decoded.is_long_header


def test_short_header_is_one_rtt():
    packet = Packet(PacketType.ONE_RTT, CID, 7, (PingFrame(),))
    assert not packet.is_long_header
    assert not packet.encode()[0] & 0x80


def test_connection_id_validated():
    with pytest.raises(ValueError):
        Packet(PacketType.ONE_RTT, b"\x01", 0, ())


def test_negative_packet_number_rejected():
    with pytest.raises(ValueError):
        Packet(PacketType.ONE_RTT, CID, -1, ())


def test_large_packet_number_round_trips():
    packet = Packet(PacketType.ONE_RTT, CID, 2**40, (PingFrame(),))
    assert Packet.decode(packet.encode()).packet_number == 2**40


def test_too_short_datagram_rejected():
    with pytest.raises(PacketParseError):
        Packet.decode(b"\x40\x01")


def test_missing_fixed_bit_rejected():
    packet = bytearray(Packet(PacketType.ONE_RTT, CID, 0, (PingFrame(),)).encode())
    packet[0] &= ~0x40
    with pytest.raises(PacketParseError):
        Packet.decode(bytes(packet))


def test_ack_eliciting_classification():
    ack_only = Packet(PacketType.ONE_RTT, CID, 0, (AckFrame(1, 0, ((0, 1),)),))
    padded_ack = Packet(
        PacketType.ONE_RTT, CID, 0, (AckFrame(1, 0, ((0, 1),)), PaddingFrame(3))
    )
    with_data = Packet(PacketType.ONE_RTT, CID, 0, (StreamFrame(0, 0, b"x"),))
    assert not ack_only.ack_eliciting()
    assert not padded_ack.ack_eliciting()
    assert with_data.ack_eliciting()


@given(
    packet_number=st.integers(min_value=0, max_value=2**50),
    cid=st.binary(min_size=CONNECTION_ID_BYTES, max_size=CONNECTION_ID_BYTES),
    data=st.binary(max_size=1200),
)
def test_packet_round_trip_property(packet_number, cid, data):
    packet = Packet(PacketType.ONE_RTT, cid, packet_number, (StreamFrame(4, 9, data),))
    assert Packet.decode(packet.encode()) == packet


def test_per_packet_values_are_slotted_validated_and_compared_by_field():
    """Packet, StreamFrame and AckFrame are built once per packet sent:
    slotted (no instance ``__dict__``), validated on construction, and
    equal exactly when their fields are (``test_datagram_sidecar.py``
    compares a sent packet with the parse of its bytes this way)."""
    ack = AckFrame(9, 25, ((7, 9), (1, 4)))
    stream = StreamFrame(4, 100, b"payload", fin=True)
    packet = Packet(PacketType.ONE_RTT, CID, 3, (stream, ack))
    for value in (ack, stream, packet):
        assert not hasattr(value, "__dict__")
        assert "__slots__" in type(value).__dict__
    assert packet == Packet(
        PacketType.ONE_RTT, CID, 3, (StreamFrame(4, 100, b"payload", True), ack)
    )
    assert packet != Packet(PacketType.ONE_RTT, CID, 3, (stream, AckFrame(9, 25, ((7, 9),))))
    assert stream != StreamFrame(4, 100, b"payload")
    assert Packet.decode(packet.encode()) == packet
    with pytest.raises(ValueError):
        Packet(PacketType.ONE_RTT, CID[:7], 3, ())
    with pytest.raises(ValueError):
        Packet(PacketType.ONE_RTT, CID, -1, ())
    with pytest.raises(ValueError):
        AckFrame(9, 0, ((1, 8),))

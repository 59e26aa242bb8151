"""``wire_size()`` is ``len(encode())`` without the bytes.

The sender sizes every datagram with :meth:`Packet.wire_size` and leaves
the bytes to whoever reads them, so the size a datagram occupies on the
simulated link is only right if every frame's ``wire_size()`` counts
exactly what its ``encode()`` writes — at each varint length boundary,
where the two would first drift apart.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic.frames import (
    AckFrame,
    CryptoFrame,
    HandshakeDoneFrame,
    HxQosFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
)
from repro.quic.packet import CONNECTION_ID_BYTES, Packet, PacketType
from repro.quic.varint import MAX_VARINT

CID = bytes(range(CONNECTION_ID_BYTES))

#: Both sides of every varint length boundary (1/2, 2/4, 4/8 bytes).
BOUNDARIES = (0, 63, 64, 16383, 16384, 2**30 - 1, 2**30, MAX_VARINT)
#: Payload lengths across the 1/2 and 2/4-byte length boundaries.
LENGTHS = (0, 63, 64, 16383, 16384)


def assert_sized(item):
    assert item.wire_size() == len(item.encode())


@pytest.mark.parametrize("value", BOUNDARIES)
def test_stream_frame_ids_and_offsets(value):
    assert_sized(StreamFrame(value, 0, b"x"))
    assert_sized(StreamFrame(0, value, b"x", fin=True))


@pytest.mark.parametrize("length", LENGTHS)
def test_stream_and_crypto_frame_lengths(length):
    data = b"d" * length
    assert_sized(StreamFrame(4, 1_000, data))
    assert_sized(CryptoFrame(0, data))


@pytest.mark.parametrize("value", BOUNDARIES)
def test_crypto_frame_offsets(value):
    assert_sized(CryptoFrame(value, b"chlo"))


@pytest.mark.parametrize("value", BOUNDARIES)
def test_ack_frame_fields(value):
    assert_sized(AckFrame(value, value, ((0, value),)))
    assert_sized(AckFrame(value, 0, ((value, value),)))


@pytest.mark.parametrize("gap", [0, 62, 63, 16382, 16383, 2**30 - 2, 2**30])
def test_ack_frame_gaps_and_range_lengths(gap):
    """Gaps and extra-range lengths are varints of their own."""
    second_high = gap
    top_low = second_high + gap + 2
    ack = AckFrame(top_low + 5, 25, ((top_low, top_low + 5), (0, second_high)))
    assert_sized(ack)


@pytest.mark.parametrize("value", [0, 63, 64, 16383, 16384, 2**30])
def test_hx_qos_frame_triples(value):
    assert_sized(HxQosFrame(((value, b"v" * 70),) * 3))
    assert_sized(HxQosFrame(tuple((i, b"") for i in range(64))))
    assert_sized(HxQosFrame.from_metrics(0.05, 8e6, 1_234.5, sealed=b"s" * 48))


@pytest.mark.parametrize(
    "frame", [PaddingFrame(1), PaddingFrame(64), PingFrame(), HandshakeDoneFrame()]
)
def test_fixed_size_frames(frame):
    assert_sized(frame)


@pytest.mark.parametrize("packet_number", BOUNDARIES)
@pytest.mark.parametrize("packet_type", list(PacketType))
def test_packet_headers(packet_type, packet_number):
    frames = (AckFrame(9, 0, ((9, 9),)), StreamFrame(0, 70_000, b"x" * 1_200))
    assert_sized(Packet(packet_type, CID, packet_number, frames))
    assert_sized(Packet(packet_type, CID, packet_number, ()))


varints = st.one_of(
    st.sampled_from(BOUNDARIES), st.integers(min_value=0, max_value=MAX_VARINT)
)


@st.composite
def ack_frames(draw):
    points = sorted(
        draw(st.lists(st.integers(0, 2**31), min_size=2, max_size=10, unique=True)),
        reverse=True,
    )
    ranges = []
    for high, low in zip(points[::2], points[1::2]):
        if not ranges or high < ranges[-1][0] - 1:
            ranges.append((low, high))
    return AckFrame(ranges[0][1], draw(varints), tuple(ranges))


frames = st.one_of(
    st.builds(StreamFrame, varints, varints, st.binary(max_size=300), st.booleans()),
    st.builds(CryptoFrame, varints, st.binary(max_size=300)),
    ack_frames(),
    st.builds(
        HxQosFrame,
        st.lists(st.tuples(varints, st.binary(max_size=80)), max_size=5).map(tuple),
    ),
    st.builds(PaddingFrame, st.integers(1, 100)),
    st.just(PingFrame()),
    st.just(HandshakeDoneFrame()),
)


@given(
    packet_type=st.sampled_from(list(PacketType)),
    packet_number=varints,
    frames=st.lists(frames, max_size=6).map(tuple),
)
def test_random_packets(packet_type, packet_number, frames):
    packet = Packet(packet_type, CID, packet_number, frames)
    assert_sized(packet)
    for frame in frames:
        assert_sized(frame)

"""Tests for frame codecs, including the Wira Hx_QoS frame."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic.frames import (
    AckFrame,
    CryptoFrame,
    FrameParseError,
    FrameType,
    HandshakeDoneFrame,
    HxId,
    HxQosFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    parse_frames,
)


def round_trip(frame):
    parsed = parse_frames(frame.encode())
    assert len(parsed) == 1
    return parsed[0]


def test_padding_round_trip():
    assert round_trip(PaddingFrame(length=7)) == PaddingFrame(length=7)


def test_ping_round_trip():
    assert round_trip(PingFrame()) == PingFrame()


def test_handshake_done_round_trip():
    assert round_trip(HandshakeDoneFrame()) == HandshakeDoneFrame()


def test_ack_single_range():
    ack = AckFrame(largest_acked=10, ack_delay_us=250, ranges=((5, 10),))
    assert round_trip(ack) == ack


def test_ack_multiple_ranges():
    ack = AckFrame(largest_acked=20, ack_delay_us=0, ranges=((18, 20), (10, 15), (0, 3)))
    assert round_trip(ack) == ack


def test_ack_acked_packet_numbers():
    ack = AckFrame(largest_acked=5, ack_delay_us=0, ranges=((4, 5), (1, 2)))
    assert ack.acked_packet_numbers() == [5, 4, 2, 1]


def test_ack_requires_ranges():
    with pytest.raises(ValueError):
        AckFrame(largest_acked=5, ack_delay_us=0, ranges=())


def test_ack_first_range_must_contain_largest():
    with pytest.raises(ValueError):
        AckFrame(largest_acked=5, ack_delay_us=0, ranges=((1, 3),))


def test_ack_invalid_range_order():
    with pytest.raises(ValueError):
        AckFrame(largest_acked=5, ack_delay_us=0, ranges=((5, 5), (4, 3)))


def test_crypto_round_trip():
    frame = CryptoFrame(offset=100, data=b"hello handshake")
    assert round_trip(frame) == frame


def test_stream_round_trip():
    frame = StreamFrame(stream_id=4, offset=1000, data=b"payload", fin=False)
    assert round_trip(frame) == frame


def test_stream_fin_round_trip():
    frame = StreamFrame(stream_id=4, offset=0, data=b"", fin=True)
    assert round_trip(frame) == frame


def test_stream_frame_type_carries_fin_bit():
    with_fin = StreamFrame(0, 0, b"x", fin=True).encode()
    without = StreamFrame(0, 0, b"x", fin=False).encode()
    assert with_fin[0] & 0x01
    assert not without[0] & 0x01


def test_hx_qos_round_trip():
    frame = HxQosFrame(((int(HxId.MIN_RTT_US), b"\x19"), (int(HxId.SEALED), b"\xde\xad")))
    assert round_trip(frame) == frame


def test_hx_qos_frame_type_is_0x1f():
    """The paper fixes the Hx_QoS packet/frame type at 0x1f (§IV-B)."""
    frame = HxQosFrame(())
    assert frame.encode()[0] == 0x1F
    assert FrameType.HX_QOS == 0x1F


def test_hx_qos_from_metrics_and_back():
    frame = HxQosFrame.from_metrics(min_rtt=0.050, max_bw_bps=8_000_000, timestamp=12.5)
    metrics = frame.decoded_metrics()
    assert metrics["min_rtt"] == pytest.approx(0.050)
    assert metrics["max_bw_bps"] == 8_000_000
    assert metrics["timestamp"] == pytest.approx(12.5)
    assert "sealed" not in metrics


def test_hx_qos_sealed_blob_carried():
    frame = HxQosFrame.from_metrics(0.02, 1e6, 1.0, sealed=b"opaque-cookie")
    assert frame.decoded_metrics()["sealed"] == b"opaque-cookie"


def test_hx_qos_metric_lookup():
    frame = HxQosFrame.from_metrics(0.02, 1e6, 1.0)
    assert frame.metric(int(HxId.MAX_BW_BPS))
    with pytest.raises(KeyError):
        frame.metric(0x77)


def test_multiple_frames_parse_in_order():
    frames = [
        AckFrame(3, 0, ((0, 3),)),
        StreamFrame(0, 0, b"abc"),
        PingFrame(),
    ]
    parsed = parse_frames(b"".join(frame.encode() for frame in frames))
    assert parsed == frames


def test_padding_runs_collapse():
    data = b"\x00" * 5 + PingFrame().encode()
    parsed = parse_frames(data)
    assert parsed == [PaddingFrame(length=5), PingFrame()]


def test_unknown_frame_type_rejected():
    with pytest.raises(FrameParseError):
        parse_frames(b"\x3f")


def test_truncated_stream_frame_rejected():
    frame = StreamFrame(0, 0, b"abcdef").encode()
    with pytest.raises(FrameParseError):
        parse_frames(frame[:-3])


def test_truncated_crypto_frame_rejected():
    frame = CryptoFrame(0, b"abcdef").encode()
    with pytest.raises(FrameParseError):
        parse_frames(frame[:-1])


@given(
    stream_id=st.integers(min_value=0, max_value=2**20),
    offset=st.integers(min_value=0, max_value=2**40),
    data=st.binary(max_size=1500),
    fin=st.booleans(),
)
def test_stream_frame_round_trip_property(stream_id, offset, data, fin):
    frame = StreamFrame(stream_id, offset, data, fin)
    assert round_trip(frame) == frame


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.binary(max_size=64)),
        max_size=8,
    )
)
def test_hx_qos_round_trip_property(triples):
    frame = HxQosFrame(tuple(triples))
    assert round_trip(frame) == frame


@given(st.data())
def test_ack_round_trip_property(data):
    # Build descending, disjoint ranges from sorted distinct integers.
    points = data.draw(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=12, unique=True)
    )
    points.sort()
    ranges = []
    for i in range(0, len(points) - 1, 2):
        ranges.append((points[i], points[i + 1]))
    # Make disjoint with gaps >= 2 by construction: filter overlapping.
    cleaned = []
    for low, high in ranges:
        if not cleaned or low > cleaned[-1][1] + 1:
            cleaned.append((low, high))
    if not cleaned:
        return
    cleaned.reverse()  # descending
    ack = AckFrame(largest_acked=cleaned[0][1], ack_delay_us=data.draw(st.integers(0, 10**6)), ranges=tuple(cleaned))
    assert round_trip(ack) == ack

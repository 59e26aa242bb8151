"""Tests for FLV muxing/demuxing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.media.amf import decode_on_metadata
from repro.media.flv import (
    FLV_HEADER_LEN,
    FlvDemuxer,
    FlvError,
    TAG_HEADER_LEN,
    TAG_SCRIPT,
    TAG_VIDEO,
    demux,
    encode_frame,
    encode_tag,
    file_header,
    mux,
    script_frame,
)
from repro.media.frames import MediaFrame, MediaFrameType


def sample_frames():
    return [
        script_frame({"width": 1280.0, "framerate": 25.0}),
        MediaFrame.synthetic(MediaFrameType.AUDIO, 0, 372),
        MediaFrame.synthetic(MediaFrameType.VIDEO_I, 0, 40_000),
        MediaFrame.synthetic(MediaFrameType.VIDEO_P, 40, 5_000),
        MediaFrame.synthetic(MediaFrameType.VIDEO_B, 80, 2_000),
    ]


def test_header_layout():
    header = file_header()
    assert header[:3] == b"FLV"
    assert header[3] == 1  # version
    assert header[4] == 0x05  # audio + video flags
    assert int.from_bytes(header[5:9], "big") == FLV_HEADER_LEN
    assert header[9:13] == b"\x00\x00\x00\x00"  # PreviousTagSize0


def test_mux_demux_round_trip():
    frames = sample_frames()
    tags = demux(mux(frames))
    assert len(tags) == len(frames)
    for frame, tag in zip(frames, tags):
        recovered = tag.to_media_frame()
        assert recovered.frame_type == frame.frame_type
        assert recovered.payload == frame.payload
        assert recovered.pts_ms == frame.pts_ms


def test_video_control_byte_encodes_frame_type():
    i_tag = demux(mux([MediaFrame.synthetic(MediaFrameType.VIDEO_I, 0, 10)]))[0]
    b_tag = demux(mux([MediaFrame.synthetic(MediaFrameType.VIDEO_B, 0, 10)]))[0]
    assert i_tag.data[0] == 0x17  # keyframe, AVC
    assert b_tag.data[0] == 0x37  # disposable inter, AVC
    assert i_tag.media_frame_type == MediaFrameType.VIDEO_I
    assert b_tag.media_frame_type == MediaFrameType.VIDEO_B


def test_on_wire_size_accounting():
    frame = MediaFrame.synthetic(MediaFrameType.VIDEO_I, 0, 1000)
    tag = demux(mux([frame]))[0]
    # video body = control byte + payload
    assert tag.on_wire_size == TAG_HEADER_LEN + 1001 + 4
    assert len(mux([frame])) == len(file_header()) + tag.on_wire_size


def test_extended_timestamp():
    frame = MediaFrame.synthetic(MediaFrameType.VIDEO_I, 0x1234567, 10)
    tag = demux(mux([frame]))[0]
    assert tag.timestamp_ms == 0x1234567


def test_metadata_decodes_from_the_script_tag():
    # The demuxer hands the script tag back undecoded; whoever wants
    # onMetaData decodes that tag's body.
    tags = FlvDemuxer().feed(mux(sample_frames()))
    assert tags[0].tag_type == TAG_SCRIPT
    assert decode_on_metadata(tags[0].data) == {"width": 1280.0, "framerate": 25.0}


def test_incremental_byte_at_a_time():
    blob = mux(sample_frames())
    demuxer = FlvDemuxer()
    tags = []
    for i in range(len(blob)):
        tags.extend(demuxer.feed(blob[i : i + 1]))
    assert len(tags) == len(sample_frames())


def test_demux_without_header():
    frames = sample_frames()
    blob = mux(frames, include_header=False)
    tags = demux(blob, expect_header=False)
    assert len(tags) == len(frames)


def test_bad_signature_rejected():
    with pytest.raises(FlvError):
        demux(b"MP4\x01\x05\x00\x00\x00\x09\x00\x00\x00\x00")


def test_bad_tag_type_rejected():
    blob = file_header() + bytes([99]) + bytes(14)
    with pytest.raises(FlvError):
        demux(blob)


def test_previous_tag_size_mismatch_rejected():
    tag = bytearray(encode_tag(TAG_VIDEO, 0, b"\x17abc"))
    tag[-1] ^= 0xFF
    with pytest.raises(FlvError):
        demux(file_header() + bytes(tag))


def test_oversized_tag_rejected():
    with pytest.raises(FlvError):
        encode_tag(TAG_SCRIPT, 0, bytes(1 << 24))


def test_negative_timestamp_rejected():
    with pytest.raises(FlvError):
        encode_tag(TAG_VIDEO, -1, b"\x17")


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(MediaFrameType)),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=5_000),
        ),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=1, max_value=997),
)
def test_incremental_equals_one_shot_property(specs, chunk):
    """Property: chunked feeding yields exactly the one-shot parse."""
    frames = [
        MediaFrame.synthetic(ft, pts, size)
        for ft, pts, size in specs
        if ft != MediaFrameType.SCRIPT
    ]
    if not frames:
        return
    blob = mux(frames)
    one_shot = demux(blob)
    demuxer = FlvDemuxer()
    chunked = []
    for i in range(0, len(blob), chunk):
        chunked.extend(demuxer.feed(blob[i : i + chunk]))
    assert chunked == one_shot

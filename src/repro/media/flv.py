"""Byte-exact FLV container muxing and demuxing (Adobe FLV spec v10).

Layout produced/consumed::

    "FLV" | version | flags | data_offset(9)      — 9-byte file header
    PreviousTagSize0 = 0                          — u32
    repeat:
        TagType(u8) DataSize(u24) Timestamp(u24) TimestampExt(u8)
        StreamID(u24 = 0) | Data[DataSize]
        PreviousTagSize = 11 + DataSize           — u32

Video tag data leads with a frame-type/codec byte (keyframe=1,
inter=2, disposable-inter=3; codec 7 = AVC); audio leads with the
sound-format byte (0xAF = AAC); script tags carry AMF0 ``onMetaData``.

The incremental :class:`FlvDemuxer` is what the Wira *client* runs to
detect first-frame completion; the server-side Frame Perception parser
(:mod:`repro.core.frame_perception`) walks the same structure but
follows Algorithm 1's accounting rules.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.media.amf import encode_on_metadata
from repro.media.frames import MediaFrame, MediaFrameType

FLV_SIGNATURE = b"FLV"
FLV_VERSION = 1
FLV_HEADER_LEN = 9
PREVIOUS_TAG_SIZE_LEN = 4
TAG_HEADER_LEN = 11

TAG_AUDIO = 8
TAG_VIDEO = 9
TAG_SCRIPT = 18

_VIDEO_FRAME_TO_NIBBLE = {
    MediaFrameType.VIDEO_I: 1,  # keyframe
    MediaFrameType.VIDEO_P: 2,  # inter frame
    MediaFrameType.VIDEO_B: 3,  # disposable inter frame
}
_NIBBLE_TO_VIDEO_FRAME = {v: k for k, v in _VIDEO_FRAME_TO_NIBBLE.items()}
_CODEC_AVC = 7
_AUDIO_HEADER_AAC = 0xAF
_TAG_WORDS = struct.Struct(">II")


class FlvError(ValueError):
    """Raised on malformed FLV data."""


@dataclass(frozen=True)
class FlvTag:
    """One demuxed FLV tag."""

    tag_type: int
    timestamp_ms: int
    data: bytes

    @property
    def media_frame_type(self) -> MediaFrameType:
        if self.tag_type == TAG_SCRIPT:
            return MediaFrameType.SCRIPT
        if self.tag_type == TAG_AUDIO:
            return MediaFrameType.AUDIO
        if self.tag_type == TAG_VIDEO:
            if not self.data:
                raise FlvError("empty video tag")
            nibble = self.data[0] >> 4
            try:
                return _NIBBLE_TO_VIDEO_FRAME[nibble]
            except KeyError:
                raise FlvError(f"unknown video frame type nibble {nibble}") from None
        raise FlvError(f"unknown tag type {self.tag_type}")

    @property
    def is_video(self) -> bool:
        return self.tag_type == TAG_VIDEO

    def to_media_frame(self) -> MediaFrame:
        """Strip container framing back to the elementary frame."""
        frame_type = self.media_frame_type
        payload = self.data if frame_type == MediaFrameType.SCRIPT else self.data[1:]
        return MediaFrame(frame_type, self.timestamp_ms, payload)

    @property
    def on_wire_size(self) -> int:
        """Tag header + body + trailing PreviousTagSize."""
        return TAG_HEADER_LEN + len(self.data) + PREVIOUS_TAG_SIZE_LEN


def file_header(has_audio: bool = True, has_video: bool = True) -> bytes:
    """9-byte FLV header plus the zero PreviousTagSize0 word."""
    flags = (0x04 if has_audio else 0) | (0x01 if has_video else 0)
    header = FLV_SIGNATURE + bytes([FLV_VERSION, flags]) + struct.pack(">I", FLV_HEADER_LEN)
    return header + struct.pack(">I", 0)


def encode_tag(tag_type: int, timestamp_ms: int, data: bytes) -> bytes:
    """Tag header + data + PreviousTagSize."""
    if tag_type not in (TAG_AUDIO, TAG_VIDEO, TAG_SCRIPT):
        raise FlvError(f"invalid tag type {tag_type}")
    if timestamp_ms < 0:
        raise FlvError("negative timestamp")
    size = len(data)
    if size >= 1 << 24:
        raise FlvError("tag body too large")
    out = bytearray()
    out.append(tag_type)
    out += size.to_bytes(3, "big")
    out += (timestamp_ms & 0xFFFFFF).to_bytes(3, "big")
    out.append((timestamp_ms >> 24) & 0xFF)
    out += b"\x00\x00\x00"  # StreamID, always 0
    out += data
    out += struct.pack(">I", TAG_HEADER_LEN + size)
    return bytes(out)


def encode_frame(frame: MediaFrame) -> bytes:
    """Wrap one media frame as an FLV tag (with PreviousTagSize)."""
    if frame.frame_type == MediaFrameType.SCRIPT:
        return encode_tag(TAG_SCRIPT, frame.pts_ms, frame.payload)
    if frame.frame_type == MediaFrameType.AUDIO:
        return encode_tag(TAG_AUDIO, frame.pts_ms, bytes([_AUDIO_HEADER_AAC]) + frame.payload)
    nibble = _VIDEO_FRAME_TO_NIBBLE[frame.frame_type]
    control = (nibble << 4) | _CODEC_AVC
    return encode_tag(TAG_VIDEO, frame.pts_ms, bytes([control]) + frame.payload)


def script_frame(metadata: Dict[str, Any], pts_ms: int = 0) -> MediaFrame:
    """Build the ``onMetaData`` script frame a stream leads with."""
    return MediaFrame(MediaFrameType.SCRIPT, pts_ms, encode_on_metadata(metadata))


def mux(frames: Iterable[MediaFrame], include_header: bool = True) -> bytes:
    """Serialise media frames as an FLV byte stream."""
    out = bytearray()
    if include_header:
        out += file_header()
    for frame in frames:
        out += encode_frame(frame)
    return bytes(out)


class FlvDemuxer:
    """Incremental FLV parser.

    Feed arbitrary byte slices as they arrive off the transport; parsed
    tags come back as soon as they are complete.  This is the client's
    tool for timing per-frame completion (FFCT, Fig 11; follow-up
    frames, Fig 15).  A script tag comes back as its AMF bytes, not
    decoded: nothing on the receive path reads ``onMetaData``, and
    :func:`repro.media.amf.decode_on_metadata` parses it on demand.
    """

    def __init__(self, expect_header: bool = True) -> None:
        self._buffer = bytearray()
        self._header_parsed = not expect_header
        self.tags_parsed = 0
        # Bytes the buffer must hold before the tag whose header has
        # been read can complete (0 until a header is read): a large tag
        # arrives over many feeds, and each only has to check a length.
        self._awaiting = 0

    def feed(self, data: bytes) -> List[FlvTag]:
        """Ingest bytes; returns all tags completed by this chunk."""
        buffer = self._buffer
        buffer += data
        tags: List[FlvTag] = []
        if len(buffer) < self._awaiting:
            return tags
        if not self._header_parsed:
            if len(buffer) < FLV_HEADER_LEN + PREVIOUS_TAG_SIZE_LEN:
                return tags
            if buffer[:3] != FLV_SIGNATURE:
                raise FlvError("missing FLV signature")
            data_offset = struct.unpack_from(">I", buffer, 5)[0]
            if data_offset < FLV_HEADER_LEN:
                raise FlvError("implausible data offset")
            del buffer[: data_offset + PREVIOUS_TAG_SIZE_LEN]
            self._header_parsed = True
        while True:
            tag = self._try_parse_tag()
            if tag is None:
                break
            tags.append(tag)
            self.tags_parsed += 1
        return tags

    def _try_parse_tag(self) -> Optional[FlvTag]:
        buffer = self._buffer
        if len(buffer) < TAG_HEADER_LEN:
            return None
        # TagType(8) DataSize(24) | Timestamp(24) TimestampExt(8)
        type_and_size, stamp = _TAG_WORDS.unpack_from(buffer)
        tag_type = type_and_size >> 24
        if tag_type not in (TAG_AUDIO, TAG_VIDEO, TAG_SCRIPT):
            raise FlvError(f"invalid tag type {tag_type}")
        end = TAG_HEADER_LEN + (type_and_size & 0xFFFFFF)
        total = end + PREVIOUS_TAG_SIZE_LEN
        if len(buffer) < total:
            self._awaiting = total
            return None
        self._awaiting = 0
        prev_size = struct.unpack_from(">I", buffer, end)[0]
        if prev_size != end:
            raise FlvError(f"PreviousTagSize mismatch: {prev_size} != {end}")
        body = bytes(buffer[TAG_HEADER_LEN:end])
        del buffer[:total]
        return FlvTag(tag_type, (stamp >> 8) | ((stamp & 0xFF) << 24), body)


def demux(data: bytes, expect_header: bool = True) -> List[FlvTag]:
    """One-shot demux of a complete FLV byte string."""
    demuxer = FlvDemuxer(expect_header=expect_header)
    return demuxer.feed(data)

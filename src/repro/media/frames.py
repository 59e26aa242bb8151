"""Media frame and GOP value objects."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence


class MediaFrameType(enum.Enum):
    """Frame kinds the Wira parser distinguishes (§IV-A)."""

    VIDEO_I = "I"
    VIDEO_P = "P"
    VIDEO_B = "B"
    AUDIO = "audio"
    SCRIPT = "script"

    @property
    def is_video(self) -> bool:
        return self in (MediaFrameType.VIDEO_I, MediaFrameType.VIDEO_P, MediaFrameType.VIDEO_B)


@dataclass(frozen=True)
class MediaFrame:
    """One elementary frame before container muxing.

    ``payload`` is synthetic (zeros) — only its *size* matters for
    transmission studies — but it is carried verbatim through muxers and
    demuxers so container round-trips are byte-exact.
    """

    frame_type: MediaFrameType
    pts_ms: int
    payload: bytes

    @classmethod
    def synthetic(cls, frame_type: MediaFrameType, pts_ms: int, size: int) -> "MediaFrame":
        if size < 0:
            raise ValueError("frame size must be non-negative")
        return cls(frame_type, pts_ms, bytes(size))

    @property
    def size(self) -> int:
        return len(self.payload)

    @property
    def is_video(self) -> bool:
        return self.frame_type.is_video


@dataclass(frozen=True)
class Gop:
    """A group of pictures plus its leading non-video frames.

    The origin hands the proxy whole GOPs (Fig 6): script data and audio
    first (they precede the I frame in the FLV timeline), then the I
    frame and its dependent P/B frames.
    """

    frames: tuple

    def __post_init__(self) -> None:
        video = [f for f in self.frames if f.is_video]
        if not video:
            raise ValueError("a GOP must contain at least one video frame")
        if video[0].frame_type != MediaFrameType.VIDEO_I:
            raise ValueError("the first video frame of a GOP must be an I frame")

    @classmethod
    def of(cls, frames: Sequence[MediaFrame]) -> "Gop":
        return cls(tuple(frames))

    def first_frame_bytes(self, video_frame_threshold: int = 1) -> int:
        """Payload bytes of the paper's "first frame" (§IV-A).

        Everything up to and including the ``video_frame_threshold``-th
        video frame: protocol-level sizes are *not* included here — this
        is the media-level ground truth the parser's FF_Size (which adds
        container overhead) is checked against.
        """
        total = 0
        seen_video = 0
        for frame in self.frames:
            total += frame.size
            if frame.is_video:
                seen_video += 1
                if seen_video == video_frame_threshold:
                    return total
        raise ValueError(
            f"GOP has only {seen_video} video frames, need {video_frame_threshold}"
        )

"""Frame Perception: the cross-layer first-frame parser (§IV-A).

Implements Algorithm 1 of the paper.  The parser sits in L4 on the
sender: live-streaming bytes destined for the client are *also* fed
through :meth:`FrameParser.feed` before transmission, and once the
``Θ_VF``-th video frame is complete the parser reports ``FF_Size`` — the
on-wire size of everything from the protocol header through that video
frame, including script data, audio frames and per-tag framing
(``PreviousTagSize`` in FLV), "because they are also critical for
successfully displaying the first frame on the client side".

Differences from the pseudo-code are cosmetic Pythonisms: where
Algorithm 1 returns ``-1``, :meth:`feed` returns ``None`` (not complete
yet) or raises :class:`UnknownProtocolError` (``PtlType ∉ PtlSet``);
a completed parser keeps returning the final size.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.core.parser_backends import (
    ParsedUnit,
    PtlType,
    UnknownProtocolError,
    detect_protocol,
    make_backend,
)
from repro.media.frames import MediaFrameType


class ParseStatus(enum.Enum):
    DETECTING = "detecting"  # protocol not yet identified
    PARSING = "parsing"  # walking frames, FF not complete
    COMPLETE = "complete"  # FF_Size available


class FrameParser:
    """Incremental Algorithm-1 parser for one live-streaming session.

    Parameters
    ----------
    video_frame_threshold:
        Θ_VF — how many video frames close the first frame (default 1;
        §VII notes clients with richer playback conditions raise it).
    """

    def __init__(self, video_frame_threshold: int = 1) -> None:
        if video_frame_threshold < 1:
            raise ValueError("video frame threshold must be >= 1")
        self.video_frame_threshold = video_frame_threshold
        self.status = ParseStatus.DETECTING
        self.protocol: Optional[PtlType] = None
        self.ff_size: Optional[int] = None
        self.video_frames_seen = 0
        self.bytes_fed = 0
        self._prefix = bytearray()
        self._backend = None
        self._accumulated = 0
        self._units: List[ParsedUnit] = []

    @property
    def ff_complete(self) -> bool:
        """Algorithm 1's ``FF_Complete`` flag."""
        return self.status == ParseStatus.COMPLETE

    def feed(self, data: bytes) -> Optional[int]:
        """Ingest stream bytes; returns FF_Size once it is known.

        Safe to keep feeding after completion (the sender keeps
        transmitting) — the parser ignores further input and returns the
        final FF_Size, mirroring the early ``if FF_Complete`` exit.
        """
        if self.status == ParseStatus.COMPLETE:
            return self.ff_size
        self.bytes_fed += len(data)

        if self.status == ParseStatus.DETECTING:
            self._prefix += data
            protocol = detect_protocol(bytes(self._prefix))
            if protocol is None:
                return None
            self.protocol = protocol
            self._backend = make_backend(protocol)
            data = bytes(self._prefix)
            self._prefix.clear()
            self.status = ParseStatus.PARSING

        assert self._backend is not None
        for unit in self._backend.feed(data):
            self._units.append(unit)
            self._accumulated += unit.wire_bytes
            if unit.kind == "frame" and unit.is_video:
                self.video_frames_seen += 1
                if self.video_frames_seen >= self.video_frame_threshold:
                    self.ff_size = self._accumulated
                    self.status = ParseStatus.COMPLETE
                    return self.ff_size
        return None

    def breakdown(self) -> dict:
        """FF_Size decomposition by contribution, for reporting."""
        by_kind: dict = {"header": 0}
        for unit in self._units:
            if unit.kind == "header":
                by_kind["header"] += unit.wire_bytes
            else:
                key = unit.media_type.value if unit.media_type else "unknown"
                by_kind[key] = by_kind.get(key, 0) + unit.wire_bytes
        return by_kind

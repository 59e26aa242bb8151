"""Live CDN origin: the upstream the proxy pulls GOPs from.

The proxy "can pull the requested live-streaming data from our live CDN"
(Fig 10).  :class:`Origin` maps stream names to
:class:`~repro.media.source.LiveSource` generators and answers fetches
with the GOP bundle a viewer joining *now* should receive.

To exercise corner case 1 of §IV-C — the FLV header/script/audio being
"delivered to L4 in turn before the I frame has been pulled" — a fetch
can stagger frame availability: each frame comes with the time offset at
which the origin hands it to the proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.media.frames import MediaFrame
from repro.media.source import LiveSource, StreamProfile


@dataclass(frozen=True)
class OriginFetch:
    """Result of one origin pull.

    ``frames`` pair each media frame with its availability offset in
    seconds relative to the fetch (0.0 = immediately available).
    """

    stream_name: str
    frames: Tuple[Tuple[MediaFrame, float], ...]


class UnknownStreamError(KeyError):
    """Requested stream is not hosted by this origin."""


class Origin:
    """Holds live streams and serves GOP bundles.

    Parameters
    ----------
    i_frame_pull_delay:
        Seconds by which the I frame (and everything after it) lags the
        leading script/audio frames when fetched — 0 disables corner
        case 1; a few milliseconds reproduces it.
    """

    def __init__(self, i_frame_pull_delay: float = 0.0) -> None:
        if i_frame_pull_delay < 0:
            raise ValueError("pull delay must be non-negative")
        self.i_frame_pull_delay = i_frame_pull_delay
        self._streams: Dict[str, LiveSource] = {}

    def add_stream(self, name: str, profile: StreamProfile) -> LiveSource:
        source = LiveSource(profile)
        self._streams[name] = source
        return source

    def get_source(self, name: str) -> LiveSource:
        try:
            return self._streams[name]
        except KeyError:
            raise UnknownStreamError(name) from None

    def fetch(
        self,
        name: str,
        join_time: float,
        max_video_frames: Optional[int] = None,
    ) -> OriginFetch:
        """GOP bundle for a viewer joining ``name`` at ``join_time``.

        ``max_video_frames`` truncates the bundle after that many video
        frames (sessions only need the first few for FFCT/follow-up
        measurements; a full 2 s GOP would be wasted simulation work),
        and the source generates no frame past the cut.
        """
        gop = self.get_source(name).gop_at(join_time, max_video_frames)
        frames: List[Tuple[MediaFrame, float]] = []
        saw_video = False
        for frame in gop.frames:
            saw_video = saw_video or frame.is_video
            frames.append((frame, self.i_frame_pull_delay if saw_video else 0.0))
        return OriginFetch(name, tuple(frames))

"""The Wira player client.

Clients are "upgraded to support Hx_QoS can be synchronized and stored
locally, which will be carried in its CHLO packets when requesting some
live-streaming resource" (§V).  Besides the cookie plumbing, the client
is where the paper's metrics are measured: the first-frame completion
time is "the client-side waiting time from sending out the request
packet to displaying the first screen" (§I), so the FLV demuxer runs
here and timestamps every completed video frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import obs as _obs
from repro.cdn.playback import PlaybackPolicy, FIRST_VIDEO_FRAME
from repro.core.transport_cookie import ClientCookieStore, encode_hqst
from repro.media import flv
from repro.quic.connection import Connection
from repro.quic.frames import HxQosFrame
from repro.simnet.engine import EventLoop


@dataclass
class ClientMetrics:
    """Everything the evaluation reads from the player side."""

    request_sent_at: Optional[float] = None
    first_byte_at: Optional[float] = None
    first_frame_at: Optional[float] = None
    video_frame_times: List[float] = field(default_factory=list)
    bytes_received: int = 0
    cookies_received: int = 0

    @property
    def ffct(self) -> Optional[float]:
        """First-frame completion time, seconds."""
        if self.first_frame_at is None or self.request_sent_at is None:
            return None
        return self.first_frame_at - self.request_sent_at

    def frame_completion_time(self, k: int) -> Optional[float]:
        """Completion time of the k-th video frame (1-based), seconds."""
        if k < 1 or k > len(self.video_frame_times) or self.request_sent_at is None:
            return None
        return self.video_frame_times[k - 1] - self.request_sent_at


class WiraClient:
    """One player session bound to a client connection."""

    def __init__(
        self,
        loop: EventLoop,
        connection: Connection,
        stream_name: str,
        origin_id: str = "origin",
        cookie_store: Optional[ClientCookieStore] = None,
        playback: PlaybackPolicy = FIRST_VIDEO_FRAME,
        target_video_frames: int = 4,
        clock_offset: float = 0.0,
        on_first_frame: Optional[Callable[[], None]] = None,
        on_video_frame: Optional[Callable[[int], None]] = None,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        if target_video_frames < 1:
            raise ValueError("need at least one target video frame")
        self.loop = loop
        self.connection = connection
        self.stream_name = stream_name
        self.origin_id = origin_id
        self.cookie_store = cookie_store
        self.playback = playback
        self.target_video_frames = max(
            target_video_frames, playback.video_frame_threshold()
        )
        self.clock_offset = clock_offset
        self.on_first_frame = on_first_frame
        self.on_video_frame = on_video_frame
        self.on_done = on_done
        self.metrics = ClientMetrics()
        self.done = False
        self._demuxer = flv.FlvDemuxer(expect_header=True)
        self._video_frames_seen = 0
        connection.on_stream_data = self._on_stream_data
        connection.on_hx_qos = self._on_hx_qos
        if cookie_store is not None:
            # Route store evictions into this session's trace scope.  A
            # chain's store outlives each session, so every client
            # re-points the observer at its own loop clock — evictions
            # always stamp the *current* session's (monotonic) time.
            cookie_store.set_on_evict(self._on_cookie_evicted)

    @property
    def wall_clock(self) -> float:
        return self.clock_offset + self.loop.now

    def _trace(self, name: str, data: dict) -> None:
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(self.loop.now, name, self.connection._trace_id, data)

    # ------------------------------------------------------------------

    @staticmethod
    def build_hqst_tag(
        cookie_store: Optional[ClientCookieStore],
        origin_id: str,
        supported: bool = True,
    ) -> bytes:
        """HQST tag value for the CHLO, echoing any stored cookie."""
        if not supported:
            return encode_hqst(False)
        stored = cookie_store.get(origin_id) if cookie_store is not None else None
        if stored is None:
            return encode_hqst(True)
        sealed, received_at = stored
        return encode_hqst(True, received_at_ms=int(received_at * 1000), sealed_frame=sealed)

    def start(self) -> None:
        """Launch the handshake and send the play request."""
        self.connection.start()
        self.metrics.request_sent_at = self.loop.now
        self._trace("session:request_sent", {"stream": self.stream_name})
        request = f"GET /live/{self.stream_name}.flv\r\n".encode("ascii")
        self.connection.send_stream_data(0, request, fin=True)

    # ------------------------------------------------------------------

    def _on_stream_data(self, stream_id: int, data: bytes, fin: bool) -> None:
        if not data:
            return
        if self.metrics.first_byte_at is None:
            self.metrics.first_byte_at = self.loop.now
            self._trace("session:first_byte", {})
        self.metrics.bytes_received += len(data)
        for tag in self._demuxer.feed(data):
            if not tag.is_video:
                continue
            self._video_frames_seen += 1
            self.metrics.video_frame_times.append(self.loop.now)
            self._trace("session:video_frame", {"k": self._video_frames_seen})
            if self.on_video_frame is not None:
                self.on_video_frame(self._video_frames_seen)
            if (
                self._video_frames_seen == self.playback.video_frame_threshold()
                and self.metrics.first_frame_at is None
            ):
                self.metrics.first_frame_at = self.loop.now
                self._trace(
                    "session:first_frame",
                    {"k": self._video_frames_seen, "ffct": self.metrics.ffct},
                )
                if self.on_first_frame is not None:
                    self.on_first_frame()
            if self._video_frames_seen >= self.target_video_frames and not self.done:
                self.done = True
                self._trace("session:done", {"frames": self._video_frames_seen})
                if self.on_done is not None:
                    self.on_done()

    def close(self) -> None:
        """Close the connection and stop observing the cookie store.

        The store outlives the session; left installed, the eviction
        observer would keep this client — and through it the whole
        finished session — alive until the next one replaces it.
        """
        self.connection.close()
        if self.cookie_store is not None:
            self.cookie_store.set_on_evict(None)

    def _on_cookie_evicted(self, origin: str, reason: str) -> None:
        self._trace("wira:cookie_evicted", {"origin": origin, "reason": reason})

    def _on_hx_qos(self, frame: HxQosFrame) -> None:
        self.metrics.cookies_received += 1
        self._trace("wira:cookie_received", {"n": self.metrics.cookies_received})
        if self.cookie_store is not None:
            self.cookie_store.on_hx_qos_frame(self.origin_id, frame, now=self.wall_clock)

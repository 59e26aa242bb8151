"""The Wira proxy server (§V).

Mirrors the paper's nginx+LSQUIC integration points:

* ``parse_hs_data`` — :meth:`WiraServer._on_client_hello` extracts the
  HQST tag from the CHLO and validates the echoed cookie;
* ``ngx_quic_send_data`` / ``ngx_quic_flv_parser_parse_or_send`` —
  :meth:`WiraServer._deliver_batch` feeds outbound bytes through the
  Frame Perception parser before handing them to the transport;
* the LSQUIC *send controller* — initial cwnd and pacing rate are set
  through the congestion-controller hooks per Table I, honouring both
  corner cases of §IV-C;
* periodic Hx_QoS synchronisation every ``sync_period`` seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.cdn.origin import Origin
from repro.core.config import WiraConfig
from repro.core.frame_perception import FrameParser
from repro.core.initializer import InitialParams
from repro.core.schemes import InitContext, InitPolicy, SchemeLike, as_spec, make_policy
from repro.core.transport_cookie import (
    HxQos,
    ServerCookieManager,
    decode_hqst,
)
from repro.core.cookie_crypto import CookieError
from repro.media import flv
from repro.quic.connection import Connection
from repro.quic.handshake import TAG_HQST
from repro.simnet.engine import EventLoop


@dataclass
class ServerSessionState:
    """What the proxy learned about this connection so far."""

    hx_qos: Optional[HxQos] = None
    measured_rtt: Optional[float] = None
    cookie_present: bool = False
    initial_params: Optional[InitialParams] = None
    reinitialized: bool = False  # corner case 1 second pass happened
    ff_size: Optional[int] = None
    request_received_at: Optional[float] = None


class WiraServer:
    """One proxy-side session handler bound to a server connection."""

    def __init__(
        self,
        loop: EventLoop,
        connection: Connection,
        origin: Origin,
        scheme: SchemeLike,
        wira_config: Optional[WiraConfig] = None,
        cookie_manager: Optional[ServerCookieManager] = None,
        clock_offset: float = 0.0,
        max_video_frames: int = 6,
        initial_params_override: Optional[InitialParams] = None,
        ff_size_fault: Optional[int] = None,
        on_ff_size_fault: Optional[Callable[[int], None]] = None,
        init_policy: Optional[InitPolicy] = None,
    ) -> None:
        self.loop = loop
        self.connection = connection
        self.origin = origin
        self.scheme = as_spec(scheme)
        #: The scheme's behaviour.  Callers running a session *chain*
        #: pass the chain's shared (possibly stateful) policy so online
        #: schemes can learn across sessions; a fresh stateless instance
        #: is built otherwise.
        self.policy = init_policy if init_policy is not None else make_policy(scheme)
        self.config = wira_config or WiraConfig()
        self.cookie_manager = cookie_manager
        self.clock_offset = clock_offset
        self.max_video_frames = max_video_frames
        self.initial_params_override = initial_params_override
        #: Adversarial testing hook: when set, the parser's completed
        #: FF_Size is replaced with this value before initialisation, so
        #: the Table-I floors/ceilings face hostile inputs (0, 1 byte,
        #: multi-MB) under a live session.
        self.ff_size_fault = ff_size_fault
        self.on_ff_size_fault = on_ff_size_fault
        self.state = ServerSessionState()
        self.parser = FrameParser(self.config.video_frame_threshold)
        self._request_buffer = bytearray()
        self._serving = False
        self._sync_timer = None
        self._closed = False

        connection.on_client_hello = self._on_client_hello
        connection.on_stream_data = self._on_request_data

    @property
    def wall_clock(self) -> float:
        """Server wall time — simulator time plus the session epoch."""
        return self.clock_offset + self.loop.now

    def _trace(self, name: str, data: Dict[str, object]) -> None:
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(self.loop.now, name, self.connection._trace_id, data)

    # ------------------------------------------------------------------
    # Handshake: cookie extraction (§IV-B "Lightweight Hx_QoS obtaining")

    def _on_client_hello(self, tags: Dict[bytes, bytes], rtt_sample: Optional[float]) -> None:
        self.state.measured_rtt = rtt_sample
        hqst = tags.get(TAG_HQST)
        if hqst is None or self.cookie_manager is None:
            reason = "absent" if hqst is None else "no_manager"
            self._trace("wira:cookie_miss", {"reason": reason})
            self._start_sync_timer()
            return
        try:
            supported, _received_at_ms, sealed = decode_hqst(hqst)
        except CookieError:
            supported, sealed = None, None
            self._trace("wira:cookie_miss", {"reason": "decode_error"})
        if supported and sealed:
            self.state.cookie_present = True
            self.state.hx_qos = self.cookie_manager.open_echoed(sealed, now=self.wall_clock)
            if self.state.hx_qos is not None:
                self._trace(
                    "wira:cookie_hit",
                    {
                        "min_rtt": self.state.hx_qos.min_rtt,
                        "max_bw_bps": self.state.hx_qos.max_bw_bps,
                    },
                )
            else:
                self._trace("wira:cookie_miss", {"reason": "stale_or_invalid"})
        elif supported is not None:
            reason = "unsupported" if not supported else "no_cookie"
            self._trace("wira:cookie_miss", {"reason": reason})
        self._start_sync_timer()

    # ------------------------------------------------------------------
    # Request handling and streaming

    def _on_request_data(self, stream_id: int, data: bytes, fin: bool) -> None:
        if self._serving:
            return
        self._request_buffer += data
        line = bytes(self._request_buffer)
        if b"\r\n" not in line and not fin:
            return
        request = line.split(b"\r\n", 1)[0].decode("utf-8", "replace")
        name = self._parse_request(request)
        if name is None:
            return
        self._serving = True
        self._serve(stream_id, name)

    @staticmethod
    def _parse_request(request: str) -> Optional[str]:
        # "GET /live/<name>.flv" or "GET /live/<name>"
        parts = request.split()
        if len(parts) < 2 or parts[0] != "GET":
            return None
        path = parts[1]
        if not path.startswith("/live/"):
            return None
        name = path[len("/live/") :]
        if name.endswith(".flv"):
            name = name[: -len(".flv")]
        return name or None

    def _serve(self, stream_id: int, name: str) -> None:
        now = self.loop.now
        self.state.request_received_at = now
        self._trace(
            "wira:request_received", {"stream": name, "stream_id": stream_id}
        )
        fetch = self.origin.fetch(
            name, join_time=self.clock_offset + now, max_video_frames=self.max_video_frames
        )
        # Group frames into availability batches (corner case 1 territory:
        # leading script/audio may be deliverable before the I frame).
        batches: List[Tuple[float, List]] = []
        for frame, delay in fetch.frames:
            # Exact comparison is intended: frames in one availability
            # batch carry the identical sampled delay value, untouched by
            # arithmetic, so grouping by equality cannot mis-split.
            if batches and batches[-1][0] == delay:  # wira-lint: disable=WL003
                batches[-1][1].append(frame)
            else:
                batches.append((delay, [frame]))
        for index, (delay, frames) in enumerate(batches):
            first = index == 0
            last = index == len(batches) - 1
            blob = flv.mux(frames, include_header=first)
            if delay <= 0:
                self._deliver_batch(stream_id, blob, last)
            else:
                self.loop.post_later(delay, self._deliver_batch, stream_id, blob, last)

    def _deliver_batch(self, stream_id: int, blob: bytes, last: bool) -> None:
        """Parse-then-send, the ngx_quic_send_data integration point."""
        if self.parser.bytes_fed == 0:
            self._trace("wira:parse_begin", {"batch_bytes": len(blob)})
        ff_size = self.parser.feed(blob)
        if ff_size is not None and self.state.ff_size is None:
            if self.ff_size_fault is not None:
                ff_size = self.ff_size_fault
                if self.on_ff_size_fault is not None:
                    self.on_ff_size_fault(ff_size)
            self.state.ff_size = ff_size
            self._trace(
                "wira:parse_complete",
                {"ff_size": ff_size, "bytes_fed": self.parser.bytes_fed},
            )
        self._ensure_initialized()
        self.connection.send_stream_data(stream_id, blob, fin=last)

    def _ensure_initialized(self) -> None:
        """Apply Table-I initial parameters before (re)sending data.

        Called before the first batch goes out and again if the parser
        completed later (corner case 1: "Once the first-frame parsing is
        completed, the init_cwnd will be updated").
        """
        state = self.state
        if self.initial_params_override is not None:
            # Testbed mode (Fig 2): pin exact values, bypass Table I.
            if state.initial_params is None:
                state.initial_params = self.initial_params_override
                self.connection.cc.set_initial_window(self.initial_params_override.cwnd_bytes)
                self.connection.cc.set_initial_pacing_rate(
                    self.initial_params_override.pacing_bps
                )
                self._trace_init(self.initial_params_override, reinit=False)
            return
        if state.initial_params is not None and not state.initial_params.provisional:
            return
        if state.initial_params is not None and state.ff_size is None:
            return  # still provisional, no new signal
        if state.initial_params is not None:
            state.reinitialized = True
        params = self.policy.initial_params(
            InitContext(
                config=self.config,
                ff_size=state.ff_size,
                hx_qos=state.hx_qos,
                measured_rtt=state.measured_rtt,
            )
        )
        state.initial_params = params
        self.connection.cc.set_initial_window(params.cwnd_bytes)
        self.connection.cc.set_initial_pacing_rate(params.pacing_bps)
        self._trace_init(params, reinit=state.reinitialized)

    def _trace_init(self, params: InitialParams, reinit: bool) -> None:
        """Emit the two Wira init-override events as applied."""
        self._trace(
            "wira:init_cwnd",
            {
                "bytes": params.cwnd_bytes,
                "used_ff_size": params.used_ff_size,
                "provisional": params.provisional,
                "reinit": reinit,
            },
        )
        self._trace(
            "wira:init_pacing",
            {"bps": params.pacing_bps, "used_hx_qos": params.used_hx_qos},
        )

    # ------------------------------------------------------------------
    # Periodic Hx_QoS synchronisation (§IV-B)

    def _start_sync_timer(self) -> None:
        if self._sync_timer is None and not self._closed:
            self._sync_timer = self.loop.call_later(self.config.sync_period, self._sync_hx_qos)

    def _sync_hx_qos(self) -> None:
        self._sync_timer = None
        if self._closed:
            return
        self._push_cookie()
        self._start_sync_timer()

    def _push_cookie(self) -> bool:
        """Build and send one sealed Hx_QoS frame if metrics exist."""
        if self.cookie_manager is None:
            return False
        min_rtt = self.connection.measured_min_rtt()
        max_bw = self.connection.measured_max_bw()
        if min_rtt is None or max_bw is None or max_bw <= 0:
            return False
        qos = HxQos(min_rtt=min_rtt, max_bw_bps=max_bw, timestamp=self.wall_clock)
        self.connection.send_hx_qos(self.cookie_manager.build_frame(qos))
        return True

    def flush_cookie(self) -> bool:
        """Push a final cookie immediately (end-of-session sync)."""
        return self._push_cookie()

    def close(self) -> None:
        self._closed = True
        if self._sync_timer is not None:
            self._sync_timer.cancel()
            self._sync_timer = None
        self.connection.close()

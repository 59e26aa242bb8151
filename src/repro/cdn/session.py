"""One streaming session end-to-end on the simulator.

A session reproduces the paper's measurement unit: a client joins a live
stream through the Wira proxy, and we record

* **FFCT** — request sent → Θ_VF-th video frame complete (Fig 11–13),
* **FFLR** — data-packet loss over the first-frame transfer (Fig 14),
* **follow-up frames** — completion time and loss through the first
  four video frames (Fig 15),
* **phases** — FFCT split into the stretches the paper's mechanisms act
  on (:class:`PhaseBreakdown`),
* cookie round-trip — the end-of-session Hx_QoS push that seeds the
  *next* session of the same OD pair.

Sessions are independent event-loop universes; continuity between
sessions of one OD pair lives in the client's
:class:`~repro.core.transport_cookie.ClientCookieStore` and the shared
``epoch`` wall clock passed in by the caller.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.cdn.client import ClientMetrics, WiraClient
from repro.cdn.origin import Origin
from repro.cdn.playback import PlaybackPolicy, FIRST_VIDEO_FRAME
from repro.cdn.server import WiraServer
from repro.core.config import WiraConfig
from repro.core.initializer import InitialParams
from repro.core.schemes import InitPolicy, SchemeLike, SchemeSpec, as_spec, make_policy
from repro.core.transport_cookie import ClientCookieStore, ServerCookieManager
from repro.faults import FaultInjector, FaultPlan
from repro.quic.config import QuicConfig
from repro.quic.connection import Connection, ConnectionStats, HandshakeMode, Role
from repro.quic.handshake import TAG_HQST
from repro.simnet.engine import EventLoop
from repro.simnet.path import NetworkConditions, Path
from repro.simnet.schedule import PathSchedule

DEFAULT_COOKIE_KEY = b"wira-server-secret-key-32bytes!!"

#: The drive loop advances in slices of at most this much simulated time
#: and this many events; ``client.done`` is only consulted between them.
#: :meth:`StreamingSession.drive` picks each slice's deadline; whoever
#: executes the slice caps it at ``_SLICE_EVENTS``.
_SLICE_SECONDS = 0.25
_SLICE_EVENTS = 100_000


@dataclass(frozen=True)
class SessionSpec:
    """Everything that *defines* one session, immutably.

    This is the supported construction path for sessions: build a spec,
    then hand it to :class:`StreamingSession` together with the shared
    *environment* (origin, cookie store/manager) that carries state
    between sessions of an OD pair.  Keeping definition and environment
    apart is what lets the fleet engine ship specs across process
    boundaries and replay them byte-identically.

    Fields mirror the deployment dimensions §VI varies plus the PR-4
    adversity axes; defaults reproduce the plain testbed session.
    """

    conditions: NetworkConditions
    scheme: SchemeLike
    handshake_mode: HandshakeMode = HandshakeMode.ZERO_RTT
    epoch: float = 0.0
    seed: int = 0
    timeout: float = 30.0
    playback: PlaybackPolicy = FIRST_VIDEO_FRAME
    target_video_frames: int = 4
    client_supports_cookies: bool = True
    wira_config: Optional[WiraConfig] = None
    quic_config: Optional[QuicConfig] = None
    initial_params_override: Optional[InitialParams] = None
    schedule: Optional[PathSchedule] = None
    fault_plan: Optional[FaultPlan] = None
    trace_label: Optional[str] = None

    def with_(self, **changes: object) -> "SessionSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


#: Phase names in presentation (and chronological) order.
PHASES: Tuple[str, ...] = ("handshake", "request", "origin", "transmit", "stalls")


@dataclass(frozen=True)
class PhaseBreakdown:
    """One session's FFCT split into the paper's phases (seconds).

    ``handshake``
        Request sent → server handshake complete.  Includes the uplink
        propagation and, on the 1-RTT path, the REJ round trip the
        server uses to measure an accurate init RTT (§VI).
    ``request``
        Server handshake complete → play request parsed on the server.
        ~0 for 0-RTT sessions, whose request rides with the CHLO.
    ``origin``
        Request parsed → first stream-data packet leaves the server.
        Origin frame availability plus Frame Perception parsing.  When
        the 0-RTT request overtakes a lost CHLO, the wait for the
        handshake is ``handshake``'s, and ``origin`` starts at its end.
    ``transmit``
        First data packet out → Θ_VF-th video frame complete on the
        client, *minus* retransmit stalls.  This is the phase Wira's
        ``init_cwnd`` and ``init_pacing`` overrides compress.
    ``stalls``
        Within the transmit window, time between a loss declaration (or
        PTO) on the server and its next transmission — the retransmission
        stalls Fig 14's FFLR correlates with.
    """

    handshake: float
    request: float
    origin: float
    transmit: float
    stalls: float

    @property
    def total(self) -> float:
        """Sums back to the session's FFCT."""
        return self.handshake + self.request + self.origin + self.transmit + self.stalls

    def phase(self, name: str) -> float:
        if name not in PHASES:
            raise KeyError(f"unknown phase {name!r}")
        return float(getattr(self, name))

    def as_dict(self) -> Dict[str, float]:
        return {name: self.phase(name) for name in PHASES}


def phase_breakdown(
    request_sent: Optional[float],
    handshake_done: Optional[float],
    request_received: Optional[float],
    first_data_sent: Optional[float],
    first_frame: Optional[float],
    stalls: Sequence[Tuple[float, float]],
) -> Optional[PhaseBreakdown]:
    """Split one session's FFCT at its milestones.

    ``handshake_done``, ``request_received`` and ``first_data_sent`` are
    the server's; ``stalls`` are the server connection's ``(opened,
    closed)`` intervals in time order.  Each is clipped to the transmit
    window ``[first_data_sent, first_frame]``, and intervals that touch
    or overlap count once.  ``None`` when a milestone is missing — the
    session never reached its first frame.
    """
    if (
        request_sent is None
        or handshake_done is None
        or request_received is None
        or first_data_sent is None
        or first_frame is None
    ):
        return None
    stalled = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for opened, closed in stalls:
        if opened > first_frame:
            break
        start = opened if opened > first_data_sent else first_data_sent
        end = closed if closed < first_frame else first_frame
        if end < start:
            continue
        if run_start is None or start > run_end:
            if run_start is not None:
                stalled += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_start is not None:
        stalled += run_end - run_start
    return PhaseBreakdown(
        handshake=max(0.0, handshake_done - request_sent),
        request=max(0.0, request_received - handshake_done),
        origin=max(0.0, first_data_sent - max(request_received, handshake_done)),
        transmit=max(0.0, first_frame - first_data_sent - stalled),
        stalls=stalled,
    )


@dataclass
class SessionResult:
    """Everything one session contributes to the evaluation."""

    scheme: SchemeLike
    handshake_mode: HandshakeMode
    conditions: NetworkConditions
    completed: bool
    client_metrics: ClientMetrics
    ff_size_parsed: Optional[int]
    initial_params: Optional[InitialParams]
    ff_server_stats: Optional[ConnectionStats]
    final_server_stats: ConnectionStats
    frame_stats_snapshots: List[ConnectionStats] = field(default_factory=list)
    cookie_delivered: bool = False
    used_cookie: bool = False
    server_min_rtt: Optional[float] = None
    server_max_bw: Optional[float] = None
    #: FFCT decomposed into phases; ``None`` exactly when ``ffct`` is,
    #: and on results the serve driver measures over sockets.
    phase_breakdown: Optional[PhaseBreakdown] = None
    #: Injected-fault action counts (``None`` when no fault plan ran;
    #: ``{}`` when a plan ran but never fired, e.g. a cookie fault with
    #: no cookie to corrupt).
    fault_summary: Optional[Dict[str, int]] = None

    @property
    def ffct(self) -> Optional[float]:
        return self.client_metrics.ffct

    @property
    def fflr(self) -> Optional[float]:
        """First-frame loss rate: data-packet loss through FF completion."""
        if self.ff_server_stats is None:
            return None
        return self.ff_server_stats.data_loss_rate()

    def frame_time(self, k: int) -> Optional[float]:
        return self.client_metrics.frame_completion_time(k)

    def frame_loss_rate(self, k: int) -> Optional[float]:
        """Data-packet loss rate through the k-th video frame."""
        if k < 1 or k > len(self.frame_stats_snapshots):
            return None
        return self.frame_stats_snapshots[k - 1].data_loss_rate()


@dataclass
class LiveSession:
    """A session's live topology between ``_setup`` and ``_finalize``."""

    conditions: NetworkConditions
    injector: Optional[FaultInjector]
    path: Path
    server_conn: Connection
    client_conn: Connection
    server: WiraServer
    client: WiraClient
    ff_stats: List[ConnectionStats]
    frame_snapshots: List[ConnectionStats]


class StreamingSession:
    """Builds and runs one client↔proxy session.

    A session is an immutable :class:`SessionSpec` (what to run) plus
    the environment shared along an OD pair's chain (origin, cookie
    store, cookie manager, policy).

    ``stream_data_tap`` / ``hx_qos_tap`` observe what the *client*
    connection delivers, stamped with the loop time, without altering
    behaviour — ``(now, stream_id, data, fin)`` for stream data and
    ``(now, frame)`` for pushed Hx_QoS frames.  The serve shard uses
    them to capture the sim's delivery timeline for socket replay;
    ``None`` (the default) installs nothing.

    ``init_policy`` is part of the session *environment*, like the
    cookie store: chain drivers pass the OD pair's shared policy
    instance so stateful schemes (e.g. ``adaptive``) carry learned state
    across the chain.  ``None`` builds a fresh policy from
    ``spec.scheme``.
    """

    def __init__(
        self,
        spec: SessionSpec,
        origin: Origin,
        stream_name: str,
        cookie_store: Optional[ClientCookieStore] = None,
        cookie_manager: Optional[ServerCookieManager] = None,
        stream_data_tap: Optional[Callable[[float, int, bytes, bool], None]] = None,
        hx_qos_tap: Optional[Callable[[float, object], None]] = None,
        init_policy: Optional[InitPolicy] = None,
    ) -> None:
        self.spec = spec
        self.conditions = spec.conditions
        self.scheme: SchemeSpec = as_spec(spec.scheme)
        self.origin = origin
        self.stream_name = stream_name
        self.handshake_mode = spec.handshake_mode
        self.wira_config = spec.wira_config or WiraConfig()
        self.init_policy = (
            init_policy
            if init_policy is not None
            else make_policy(self.scheme, seed=spec.seed)
        )
        # Transport stack: an explicit spec override wins, then the
        # scheme's own transport selection (cc / recovery knobs), then
        # the stock defaults.
        self.quic_config = (
            spec.quic_config or self.init_policy.quic_config() or QuicConfig()
        )
        self.cookie_store = cookie_store
        self.playback = spec.playback
        self.target_video_frames = spec.target_video_frames
        self.epoch = spec.epoch
        self.seed = spec.seed
        self.timeout = spec.timeout
        self.client_supports_cookies = spec.client_supports_cookies
        self.initial_params_override = spec.initial_params_override
        self.trace_label = spec.trace_label or f"{self.scheme.value}-seed{spec.seed}"
        self.schedule = spec.schedule
        self.fault_plan = spec.fault_plan
        self.stream_data_tap = stream_data_tap
        self.hx_qos_tap = hx_qos_tap
        if cookie_manager is not None:
            self.cookie_manager = cookie_manager
        else:
            # Seed the nonce salt so two default managers (one per
            # session seed) never share a nonce sequence even though
            # every manager's counter starts at 0 under one key.
            self.cookie_manager = ServerCookieManager(
                DEFAULT_COOKIE_KEY,
                staleness_delta=self.wira_config.staleness_delta,
                instance_salt=b"session:%d" % spec.seed,
            )

    def run(self) -> SessionResult:
        bus = _obs.ACTIVE
        if bus is None:
            return self._run()
        with bus.session(self.trace_label):
            return self._run()

    def _run(self) -> SessionResult:
        loop = EventLoop()
        steps = self.drive(loop)
        try:
            while True:
                loop.run_until(next(steps), max_events=_SLICE_EVENTS)
        except StopIteration as finished:
            # What is still queued (the cancelled sync timer, trailing
            # deliveries) points back into the session: drop it, so the
            # whole topology is freed when this returns.
            loop.clear()
            return finished.value

    def drive(self, loop: EventLoop) -> Generator[float, None, SessionResult]:
        """The one drive loop: yields the deadline of each slice it needs.

        Whoever owns ``loop`` answers each deadline with
        ``loop.run_until(deadline, max_events=_SLICE_EVENTS)`` and asks
        again: :meth:`run` does so in place, and the serve shard awaits
        between slices so the socket loop keeps turning.  The
        generator's return value is the session's result; by then the
        topology is torn down (:meth:`_finalize`), and the owner ends
        the session's life with ``loop.clear()``.
        """
        live = self._setup(loop)
        client = live.client
        while not client.done and loop.pending_events and loop.now < self.timeout:
            yield min(self.timeout, loop.now + _SLICE_SECONDS)

        # End-of-session synchronisation: push a final cookie so the
        # *next* session of this OD pair has fresh Hx_QoS, then drain.
        pushed = False
        if client.done and self.client_supports_cookies:
            pushed = live.server.flush_cookie()
            if pushed:
                drained = loop.now + max(4 * self.conditions.rtt, 0.2)
                while loop.pending_events and loop.now < drained:
                    yield drained
        cookie_delivered = pushed and client.metrics.cookies_received > 0
        return self._finalize(live, cookie_delivered)

    def _setup(self, loop: EventLoop) -> "LiveSession":
        """Construct the full session topology on ``loop``.

        Everything through ``client.start()`` happens here, in exactly
        the historical order (the session rng is consumed in a fixed
        sequence, so moving any construction step would change every
        seeded replay).  ``loop`` is a fresh solo ``EventLoop`` owned by
        the caller of :meth:`drive`; the session only schedules on it.
        """
        rng = random.Random(self.seed)
        conditions = self.conditions
        if self.schedule is not None:
            conditions = self.schedule.initial_conditions(conditions)
        path = Path(loop, conditions, rng=random.Random(rng.getrandbits(48)))

        # Every adverse-path draw below is conditional so that sessions
        # without a schedule or fault plan consume the session rng in
        # exactly the pre-existing order and replay byte-identically.
        injector: Optional[FaultInjector] = None
        send_to_client = path.send_to_client
        send_to_server = path.send_to_server
        if self.fault_plan is not None:
            injector = FaultInjector(
                self.fault_plan, loop, random.Random(rng.getrandbits(48))
            )
            send_to_client = injector.wrap_send(path.send_to_client, "to_client")
            send_to_server = injector.wrap_send(path.send_to_server, "to_server")
        if self.schedule is not None and not self.schedule.is_inert:
            self.schedule.install(loop, path, random.Random(rng.getrandbits(48)))

        server_conn = Connection(
            loop,
            Role.SERVER,
            send_to_client,
            self.quic_config,
            rng=random.Random(rng.getrandbits(48)),
        )
        hqst = WiraClient.build_hqst_tag(
            self.cookie_store, origin_id="origin", supported=self.client_supports_cookies
        )
        if injector is not None:
            hqst = injector.mutate_hqst(hqst)
        client_conn = Connection(
            loop,
            Role.CLIENT,
            send_to_server,
            self.quic_config,
            handshake_mode=self.handshake_mode,
            handshake_tags={TAG_HQST: hqst},
            rng=random.Random(rng.getrandbits(48)),
        )
        path.deliver_to_server = server_conn.datagram_received
        path.deliver_to_client = client_conn.datagram_received

        theta = self.playback.video_frame_threshold()
        # §VII: Wira adapts Θ_VF to the client's playback condition, so
        # the parser's first frame matches what the player waits for.
        wira_config = self.wira_config
        if theta > wira_config.video_frame_threshold:
            wira_config = replace(wira_config, video_frame_threshold=theta)
        server = WiraServer(
            loop,
            server_conn,
            self.origin,
            self.scheme,
            init_policy=self.init_policy,
            wira_config=wira_config,
            cookie_manager=self.cookie_manager,
            clock_offset=self.epoch,
            max_video_frames=max(self.target_video_frames, theta) + 2,
            initial_params_override=self.initial_params_override,
            ff_size_fault=injector.ff_size_override if injector is not None else None,
            on_ff_size_fault=injector.note_ff_size_override if injector is not None else None,
        )

        ff_stats: List[ConnectionStats] = []
        frame_snapshots: List[ConnectionStats] = []

        client = WiraClient(
            loop,
            client_conn,
            stream_name=self.stream_name,
            origin_id="origin",
            cookie_store=self.cookie_store,
            playback=self.playback,
            target_video_frames=self.target_video_frames,
            clock_offset=self.epoch,
            on_first_frame=lambda: ff_stats.append(server_conn.stats.snapshot()),
            on_video_frame=lambda k: frame_snapshots.append(server_conn.stats.snapshot()),
        )

        if self.stream_data_tap is not None:
            data_tap = self.stream_data_tap
            client_on_stream_data = client_conn.on_stream_data

            def _tapped_stream_data(stream_id: int, data: bytes, fin: bool) -> None:
                data_tap(loop.now, stream_id, data, fin)
                if client_on_stream_data is not None:
                    client_on_stream_data(stream_id, data, fin)

            client_conn.on_stream_data = _tapped_stream_data
        if self.hx_qos_tap is not None:
            qos_tap = self.hx_qos_tap
            client_on_hx_qos = client_conn.on_hx_qos

            def _tapped_hx_qos(frame: object) -> None:
                qos_tap(loop.now, frame)
                if client_on_hx_qos is not None:
                    client_on_hx_qos(frame)  # type: ignore[arg-type]

            client_conn.on_hx_qos = _tapped_hx_qos

        client.start()
        return LiveSession(
            conditions=conditions,
            injector=injector,
            path=path,
            server_conn=server_conn,
            client_conn=client_conn,
            server=server,
            client=client,
            ff_stats=ff_stats,
            frame_snapshots=frame_snapshots,
        )

    def _finalize(self, live: "LiveSession", cookie_delivered: bool) -> SessionResult:
        """Snapshot metrics, build the result, tear the topology down.

        The one place every executor shares, so it is where a finished
        session lets go of itself: closing both endpoints drops the
        callbacks that tie connection and application together, and
        closing the path drops the ones that tie the two connections
        together.  What the loop still holds is its owner's to clear.
        """
        server_conn = live.server_conn
        server_min_rtt = server_conn.measured_min_rtt()
        server_max_bw = server_conn.measured_max_bw()
        metrics = live.client.metrics
        stalls = server_conn.stalls
        if server_conn.stall_opened_at is not None:
            stalls = [*stalls, (server_conn.stall_opened_at, math.inf)]
        breakdown = phase_breakdown(
            metrics.request_sent_at,
            server_conn.stats.handshake_completed_at,
            live.server.state.request_received_at,
            server_conn.first_data_sent_at,
            metrics.first_frame_at,
            stalls,
        )
        if breakdown is not None and _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                server_conn.loop.now,
                "session:phases",
                server_conn._trace_id,
                breakdown.as_dict(),
            )
        live.server.close()
        live.client.close()
        live.path.close()

        return SessionResult(
            scheme=self.scheme,
            handshake_mode=self.handshake_mode,
            conditions=live.conditions,
            completed=live.client.done,
            client_metrics=metrics,
            ff_size_parsed=live.server.state.ff_size,
            initial_params=live.server.state.initial_params,
            ff_server_stats=live.ff_stats[0] if live.ff_stats else None,
            final_server_stats=server_conn.stats.snapshot(),
            frame_stats_snapshots=live.frame_snapshots,
            cookie_delivered=cookie_delivered,
            used_cookie=live.server.state.hx_qos is not None,
            server_min_rtt=server_min_rtt,
            server_max_bw=server_max_bw,
            phase_breakdown=breakdown,
            fault_summary=dict(live.injector.counters) if live.injector is not None else None,
        )

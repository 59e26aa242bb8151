"""The serve-mode measuring client.

One :class:`ServeDriver` multiplexes every session of a campaign over a
single UDP socket (flow-demuxed by connection id), so 10k concurrent
sessions cost one file descriptor, not 10k.  Per session it

1. echoes any stored cookie in a byte-identical HQST tag (built by the
   simulator's own :meth:`~repro.cdn.client.WiraClient.build_hqst_tag`),
2. sends the CHLO with the planned-session spec and waits for the SHLO,
3. sends the GET — the wall-clock measurement anchor — and then runs the
   **real FLV demuxer** over the received stream, timestamping every
   completed video frame exactly as the simulated player does,
4. stores pushed Hx_QoS cookies in one
   :class:`~repro.core.transport_cookie.ClientCookieStore` shared across
   all chains, and
5. reassembles the stream with the simulator's own
   :class:`~repro.quic.stream.RecvStream` and repairs datagram gaps with
   ``RESEND`` requests — on a stall with bytes buffered past a gap, or
   one past the timeline's end with bytes or a pushed cookie still
   missing — so loopback drops never silently truncate a distribution.

The receive path runs in the endpoint's read callback: each datagram is
parsed once and applied to its flow (bytes, frames, cookies,
``last_arrival``), and nothing else happens unless the flow turns
terminal, which resolves the flow's one ``wake`` future.  The session
coroutine awaits that future; its stall timer fires
:data:`REPAIR_DELAY` after the last arrival (re-armed lazily from the
stamp when it fires early) and runs the GET-resend, repair and deadline
rules.

The outcome is a real :class:`~repro.cdn.session.SessionResult`, so
fleet aggregates, reports and the HTML renderer consume socket sessions
unchanged.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cdn.client import ClientMetrics, WiraClient
from repro.core.schemes import as_spec
from repro.cdn.session import SessionResult
from repro.core.transport_cookie import ClientCookieStore
from repro.media import flv
from repro.quic.connection import ConnectionStats
from repro.quic.frames import HxQosFrame
from repro.quic.handshake import HandshakeMessageType
from repro.quic.packet import Packet, PacketType
from repro.quic.stream import RecvStream
from repro.serve import protocol
from repro.serve.transport import Address, UdpEndpoint, open_endpoint
from repro.serve.wire import EnvelopeKind, encode_envelope, parse_header
from repro.workload.population import PlannedSession

#: Resend cadence for the unreliable handshake/request datagrams.
HANDSHAKE_RETRY = 0.6
HANDSHAKE_ATTEMPTS = 8

#: A flow with no datagram for this long has stalled: the stall may
#: resend the GET or ask for a repair.
REPAIR_DELAY = 0.15
REPAIR_ATTEMPTS = 40

#: Wall-clock slack on top of the sim timeline before a session is
#: declared lost.
SESSION_GRACE = 5.0


class WireFailure(RuntimeError):
    """A session could not be completed over the socket."""


@dataclass
class ServeSessionOutcome:
    """One socket-measured session, plus its shard-side summary."""

    planned: PlannedSession
    scheme_value: str
    result: SessionResult
    summary: protocol.ShloSummary
    wall_ffct: Optional[float]
    retransmit_requests: int


@dataclass
class _Flow:
    """Receive-side state of one in-flight session."""

    connection_id: bytes
    shlo: "asyncio.Future[protocol.ShloSummary]"
    stream: RecvStream = field(default_factory=lambda: RecvStream(protocol.REQUEST_STREAM))
    demuxer: flv.FlvDemuxer = field(default_factory=lambda: flv.FlvDemuxer(expect_header=True))
    first_byte_at: Optional[float] = None
    frame_times: List[float] = field(default_factory=list)
    bytes_received: int = 0
    cookies: List[HxQosFrame] = field(default_factory=list)
    anchor: float = 0.0
    #: Loop time of the flow's latest 1-RTT datagram.
    last_arrival: float = 0.0
    #: What the measured phase waits for; set when it starts.
    summary: Optional[protocol.ShloSummary] = None
    #: Resolved when the flow turns terminal or stalls (see
    #: :meth:`ServeDriver._until_stall`).
    wake: "Optional[asyncio.Future[None]]" = None
    stall_timer: Optional[asyncio.TimerHandle] = None


class ServeDriver:
    """Campaign-wide client: one socket, many flows, one cookie store."""

    def __init__(self, server_addr: Address, campaign_seed: int) -> None:
        self.server_addr = server_addr
        self.campaign_seed = campaign_seed
        self.cookie_store = ClientCookieStore()
        self.endpoint: Optional[UdpEndpoint] = None
        self._flows: Dict[bytes, _Flow] = {}
        self.stats: Dict[str, int] = {
            "sessions": 0,
            "wire_failures": 0,
            "undecodable": 0,
            "unknown_flow": 0,
            "retransmit_requests": 0,
        }

    async def start(self) -> None:
        self.endpoint = await open_endpoint(self._on_datagram)

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()

    # ------------------------------------------------------------------
    # receive path

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        try:
            kind, _, payload_start = parse_header(data)
            if kind != EnvelopeKind.DATA:
                return
            packet = protocol.parse_data_payload(data[payload_start:])
        except ValueError:
            # Same drop-and-count discipline as the simulator's
            # corrupted-datagram path: malformed input never crashes the
            # receive loop and never partially applies.
            self.stats["undecodable"] += 1
            return
        flow = self._flows.get(packet.connection_id)
        if flow is None:
            self.stats["unknown_flow"] += 1
            return
        if packet.packet_type == PacketType.HANDSHAKE:
            self._on_shlo(flow, packet)
            return
        if packet.packet_type != PacketType.ONE_RTT:
            return
        loop_now = asyncio.get_running_loop().time()
        for frame in protocol.stream_frames(packet):
            if frame.stream_id != protocol.REQUEST_STREAM:
                continue
            try:
                fresh = flow.stream.on_frame(frame.offset, frame.data, frame.fin)
            except ValueError:
                # A FIN contradicting an earlier one.
                self.stats["undecodable"] += 1
                return
            self._feed(flow, fresh, loop_now)
        flow.cookies.extend(protocol.hx_qos_frames(packet))
        flow.last_arrival = loop_now
        wake = flow.wake
        if wake is not None and not wake.done() and self._terminal(flow):
            wake.set_result(None)

    def _on_shlo(self, flow: _Flow, packet: Packet) -> None:
        try:
            message = protocol.decode_handshake_packet(packet)
            if message is None or message.message_type != HandshakeMessageType.SHLO:
                return
            summary = protocol.ShloSummary.from_tags(dict(message.tags))
        except protocol.ProtocolError:
            self.stats["undecodable"] += 1
            return
        if not flow.shlo.done():
            flow.shlo.set_result(summary)

    def _feed(self, flow: _Flow, data: bytes, now: float) -> None:
        if not data:
            return
        if flow.first_byte_at is None:
            flow.first_byte_at = now
        flow.bytes_received += len(data)
        for tag in flow.demuxer.feed(data):
            if not tag.is_video:
                continue
            flow.frame_times.append(now)

    # ------------------------------------------------------------------
    # send side

    def _sendto(self, payload: bytes) -> None:
        assert self.endpoint is not None
        self.endpoint.sendto(payload, self.server_addr)

    def _send_packet(self, od_key: str, packet: Packet) -> None:
        self._sendto(
            encode_envelope(EnvelopeKind.DATA, od_key.encode("utf-8"), packet.encode())
        )

    def _connection_id(self, scheme_value: str, planned: PlannedSession) -> bytes:
        rng = random.Random(
            f"serve-flow:{self.campaign_seed}:{scheme_value}:"
            f"{planned.od.od_id}:{planned.session_index}"
        )
        return rng.getrandbits(64).to_bytes(8, "big")

    # ------------------------------------------------------------------
    # one session

    async def run_session(
        self,
        planned: PlannedSession,
        scheme_value: str,
        od_key: str,
        stream_name: str,
        target_video_frames: int,
    ) -> ServeSessionOutcome:
        """Run one planned session over the socket; measure like a player."""
        loop = asyncio.get_running_loop()
        store_key = f"{scheme_value}|{od_key}"
        hqst = WiraClient.build_hqst_tag(self.cookie_store, origin_id=store_key)
        spec = protocol.ServeSpec(
            od_key=od_key,
            stream_name=stream_name,
            scheme=as_spec(scheme_value),
            handshake_mode=planned.handshake_mode,
            epoch=planned.epoch,
            seed=planned.seed,
            session_index=planned.session_index,
            target_video_frames=target_video_frames,
            conditions=planned.conditions,
            profile=planned.stream_profile,
        )
        connection_id = self._connection_id(scheme_value, planned)
        flow = _Flow(connection_id=connection_id, shlo=loop.create_future())
        self._flows[connection_id] = flow
        self.stats["sessions"] += 1
        try:
            return await self._run_session_inner(
                loop, flow, planned, scheme_value, od_key, spec, hqst, store_key,
                target_video_frames,
            )
        except WireFailure:
            self.stats["wire_failures"] += 1
            raise
        finally:
            self._flows.pop(connection_id, None)

    async def _run_session_inner(
        self,
        loop: asyncio.AbstractEventLoop,
        flow: _Flow,
        planned: PlannedSession,
        scheme_value: str,
        od_key: str,
        spec: protocol.ServeSpec,
        hqst: bytes,
        store_key: str,
        target_video_frames: int,
    ) -> ServeSessionOutcome:
        chlo = protocol.build_chlo_packet(flow.connection_id, hqst, spec)
        summary = await self._handshake(flow, od_key, chlo)

        # Measured phase: anchor, GET, then receive until terminal.
        flow.anchor = loop.time()
        get_packet = protocol.build_stream_packet(
            flow.connection_id,
            0,
            protocol.REQUEST_STREAM,
            0,
            f"GET /live/{spec.stream_name}.flv\r\n".encode("ascii"),
            fin=True,
        )
        self._send_packet(od_key, get_packet)
        retransmits = await self._receive_stream(flow, od_key, summary, get_packet)

        done = protocol.build_stream_packet(
            flow.connection_id, 1, protocol.CONTROL_STREAM, 0, protocol.DONE_MESSAGE
        )
        self._send_packet(od_key, done)

        cookie_delivered = False
        for hx in flow.cookies:
            if self.cookie_store.on_hx_qos_frame(
                store_key, hx, now=_cookie_receipt_time(hx, planned.epoch)
            ):
                cookie_delivered = True

        metrics = ClientMetrics(
            request_sent_at=0.0,
            first_byte_at=_rel(flow.first_byte_at, flow.anchor),
            first_frame_at=flow.frame_times[0] - flow.anchor if flow.frame_times else None,
            video_frame_times=[t - flow.anchor for t in flow.frame_times],
            bytes_received=flow.bytes_received,
            cookies_received=len(flow.cookies),
        )
        completed = len(flow.frame_times) >= target_video_frames
        result = SessionResult(
            scheme=spec.scheme,
            handshake_mode=planned.handshake_mode,
            conditions=planned.conditions,
            completed=completed,
            client_metrics=metrics,
            ff_size_parsed=None,
            initial_params=None,
            # The sim leaves ff_server_stats None when no first frame was
            # delivered; mirror that so fflr excludes the same sessions.
            ff_server_stats=(
                None
                if summary.sim_ffct is None
                else ConnectionStats(
                    data_packets_sent=summary.ff_data_packets_sent,
                    data_packets_lost=summary.ff_data_packets_lost,
                )
            ),
            final_server_stats=ConnectionStats(),
            cookie_delivered=cookie_delivered,
            used_cookie=summary.used_cookie,
        )
        return ServeSessionOutcome(
            planned=planned,
            scheme_value=scheme_value,
            result=result,
            summary=summary,
            wall_ffct=metrics.ffct,
            retransmit_requests=retransmits,
        )

    async def _handshake(
        self, flow: _Flow, od_key: str, chlo: Packet
    ) -> protocol.ShloSummary:
        """CHLO with retries until the SHLO lands (unmeasured phase)."""
        for attempt in range(HANDSHAKE_ATTEMPTS):
            self._send_packet(od_key, chlo)
            try:
                # The shard answers only after its sim run; give later
                # attempts progressively longer.
                timeout = HANDSHAKE_RETRY * (attempt + 1)
                return await asyncio.wait_for(asyncio.shield(flow.shlo), timeout)
            except asyncio.TimeoutError:
                continue
        raise WireFailure(f"no SHLO after {HANDSHAKE_ATTEMPTS} attempts for {od_key}")

    async def _receive_stream(
        self,
        flow: _Flow,
        od_key: str,
        summary: protocol.ShloSummary,
        get_packet: Packet,
    ) -> int:
        """Receive the replayed stream; repair gaps; enforce deadlines."""
        loop = asyncio.get_running_loop()
        flow.summary = summary
        deadline = flow.anchor + summary.sim_duration + SESSION_GRACE
        # Before this, a stall may be a gap in the simulated delivery
        # itself (a retransmission timeout) or a replay running late
        # behind a busy shard, not a lost datagram.  The allowance past
        # the timeline is the one the GET gets before it is resent.
        timeline_end = flow.anchor + summary.sim_duration + HANDSHAKE_RETRY
        repairs = 0
        get_resent = False
        while True:
            if self._terminal(flow):
                return repairs
            now = loop.time()
            if now > deadline:
                if repairs < REPAIR_ATTEMPTS:
                    repairs += 1
                    self._request_repair(flow, od_key)
                    deadline = now + 1.0
                    continue
                raise WireFailure(
                    f"session timed out for {od_key}: "
                    f"{flow.stream.delivered_offset}/{summary.stream_length} bytes, "
                    f"{flow.stream.buffered_bytes} buffered, cookies={len(flow.cookies)}"
                )
            await self._until_stall(flow, deadline)
            if self._terminal(flow) or loop.time() > deadline:
                continue
            # Stalled: nothing arrived for a repair interval.
            if flow.first_byte_at is None and not get_resent:
                # The GET itself may have been lost.
                if loop.time() - flow.anchor > HANDSHAKE_RETRY:
                    self._send_packet(od_key, get_packet)
                    get_resent = True
                continue
            if repairs < REPAIR_ATTEMPTS and (
                # Out-of-order data is buffered: a gap exists now.
                flow.stream.buffered_bytes
                # The timeline is over and bytes or a pushed cookie are
                # still missing: the tail was lost.
                or loop.time() >= timeline_end
            ):
                repairs += 1
                self._request_repair(flow, od_key)

    async def _until_stall(self, flow: _Flow, deadline: float) -> None:
        """Wait until the flow turns terminal or stalls.

        A stall is :data:`REPAIR_DELAY` with no datagram, or the deadline
        passing.  Datagrams only stamp ``last_arrival``: the one timer
        re-arms itself from that stamp when it fires, so the wait costs
        one future and a few timers, not one per datagram.
        """
        loop = asyncio.get_running_loop()
        wake = flow.wake = loop.create_future()
        flow.stall_timer = loop.call_later(REPAIR_DELAY, self._check_stall, flow, deadline)
        try:
            await wake
        finally:
            flow.stall_timer.cancel()
            flow.wake = flow.stall_timer = None

    def _check_stall(self, flow: _Flow, deadline: float) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        quiet_until = flow.last_arrival + REPAIR_DELAY
        if now < quiet_until and now <= deadline:
            flow.stall_timer = loop.call_at(quiet_until, self._check_stall, flow, deadline)
        elif flow.wake is not None and not flow.wake.done():
            flow.wake.set_result(None)

    def _terminal(self, flow: _Flow) -> bool:
        summary = flow.summary
        if summary is None or not flow.stream.finished:
            return False
        if flow.stream.delivered_offset < summary.stream_length:
            return False
        return not summary.cookie_pushed or bool(flow.cookies)

    def _request_repair(self, flow: _Flow, od_key: str) -> None:
        self.stats["retransmit_requests"] += 1
        packet = protocol.build_stream_packet(
            flow.connection_id,
            2,
            protocol.CONTROL_STREAM,
            0,
            protocol.build_resend_request(flow.stream.delivered_offset),
        )
        self._send_packet(od_key, packet)


def _rel(stamp: Optional[float], anchor: float) -> Optional[float]:
    return None if stamp is None else stamp - anchor


def _cookie_receipt_time(frame: HxQosFrame, fallback: float) -> float:
    """Scenario-clock receipt time: the sealed frame's own timestamp.

    Cookie freshness lives on the scenario clock (planned epochs), not
    the wall clock, so the store's TTL and the next echo's timestamp
    must both be scenario times.  The pushed frame's cleartext timestamp
    is the seal time — within the session of the true receipt time.
    """
    metrics = frame.decoded_metrics()
    timestamp = metrics.get("timestamp")
    return float(timestamp) if timestamp is not None else fallback


__all__ = [
    "HANDSHAKE_ATTEMPTS",
    "HANDSHAKE_RETRY",
    "ServeDriver",
    "ServeSessionOutcome",
    "WireFailure",
]

"""Endpoint state machine: packetisation, handshake, recovery, pacing.

A :class:`Connection` is one side of a QUIC-like session running on the
discrete-event simulator.  It owns

* the handshake (0-RTT or 1-RTT, §VI of the paper evaluates both),
* stream packetisation under congestion-window and pacing constraints,
* ACK generation and loss recovery,
* the Wira extension points: handshake tags surface to the application
  (``on_client_hello``) so the server can read the ``HQST`` cookie, and
  ``send_hx_qos`` pushes Hx_QoS frames for periodic synchronisation.

Simplifications vs. RFC 9000, chosen because they do not affect
first-frame timing: a single packet-number space, no AEAD on packets, no
flow control (windows are assumed ample for a ≤250 KB first frame), no
connection migration, no datagram coalescing.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs as _obs
from repro.quic.ack_manager import AckManager
from repro.quic.cc import make_controller
from repro.quic.cc.base import CongestionController
from repro.quic.config import (
    MAX_PTO_COUNT,
    MSS,
    PACER_BURST_PACKETS,
    STREAM_FRAME_OVERHEAD,
    UDP_OVERHEAD,
    QuicConfig,
)
from repro.quic.frames import (
    AckFrame,
    CryptoFrame,
    Frame,
    HandshakeDoneFrame,
    HxQosFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
)
from repro.quic.handshake import (
    HandshakeMessage,
    HandshakeMessageType,
    chlo,
    rej,
    shlo,
)
from repro.quic.loss_recovery import LossRecovery
from repro.quic.packet import Packet, PacketType
from repro.quic.pacer import Pacer
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket
from repro.quic.stream import RecvStream, SendStream
from repro.simnet.engine import Event, EventLoop
from repro.simnet.link import Datagram


class Role(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


class HandshakeMode(enum.Enum):
    """How the connection is established (paper §VI).

    ``ZERO_RTT``: the client has a cached server config and sends the
    request together with its (full) CHLO — ~90 % of production streams.
    ``ONE_RTT``: the server rejects the inchoate CHLO once, gaining an
    accurate RTT sample before any data flows.
    """

    ZERO_RTT = "0rtt"
    ONE_RTT = "1rtt"


@dataclass
class ConnectionStats:
    """Counters the experiments read off a finished session."""

    packets_sent: int = 0
    packets_received: int = 0
    packets_lost: int = 0
    data_packets_sent: int = 0
    data_packets_lost: int = 0
    bytes_sent: int = 0
    bytes_retransmitted: int = 0
    duplicate_packets: int = 0
    corrupt_packets: int = 0
    undecodable_packets: int = 0
    pto_count: int = 0
    handshake_completed_at: Optional[float] = None
    handshake_rtt_sample: Optional[float] = None

    def data_loss_rate(self) -> float:
        """Fraction of data packets declared lost (FFLR numerator)."""
        if self.data_packets_sent == 0:
            return 0.0
        return self.data_packets_lost / self.data_packets_sent

    def snapshot(self) -> "ConnectionStats":
        return ConnectionStats(**vars(self))


class Connection:
    """One endpoint of a simulated QUIC-like connection.

    Parameters
    ----------
    loop:
        Simulator event loop.
    role:
        ``Role.CLIENT`` or ``Role.SERVER``.
    send_datagram:
        Transmit hook, e.g. ``path.send_to_server``.
    config:
        Transport knobs; see :class:`~repro.quic.config.QuicConfig`.
    handshake_mode:
        Client only: 0-RTT vs 1-RTT establishment.
    handshake_tags:
        Client only: extra CHLO tags — Wira's ``HQST`` cookie goes here.
    rng:
        Randomness source (connection-ID generation).
    """

    def __init__(
        self,
        loop: EventLoop,
        role: Role,
        send_datagram: Callable[[Datagram], bool],
        config: Optional[QuicConfig] = None,
        handshake_mode: HandshakeMode = HandshakeMode.ZERO_RTT,
        handshake_tags: Optional[Dict[bytes, bytes]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.loop = loop
        self.role = role
        self.config = config or QuicConfig()
        self.handshake_mode = handshake_mode
        self._handshake_tags = dict(handshake_tags or {})
        self._send_datagram = send_datagram
        # Seeded default is deliberate: the rng only feeds connection-ID
        # generation, which never influences timing or scheme comparisons.
        rng = rng or random.Random(0)  # wira-lint: disable=WL002
        self.connection_id = bytes(rng.getrandbits(8) for _ in range(8))
        self._trace_id = self.connection_id.hex()
        # Last (cwnd, pacing) pair the trace bus saw, so the high-volume
        # recovery:metrics_updated event only fires on actual change.
        self._last_traced_metrics: Tuple[int, float] = (-1, -1.0)

        self.rtt = RttEstimator(self.config.initial_rtt)
        self.cc: CongestionController = make_controller(
            self.config.congestion_controller, self.rtt
        )
        self.cc._trace_conn = self._trace_id
        self.pacer = Pacer(self.cc.pacing_rate_bps, PACER_BURST_PACKETS * MSS)
        self.loss_recovery = LossRecovery(self.rtt, self.config)
        self.ack_manager = AckManager()
        self.stats = ConnectionStats()

        self._next_packet_number = 0
        self._send_streams: Dict[int, SendStream] = {}
        # The first stream (in creation order) with data to send: the one
        # the packetiser drains.  Re-found whenever what the streams hold
        # changes — a write, a requeue, or this stream running dry.
        self._pending_stream: Optional[SendStream] = None
        self._recv_streams: Dict[int, RecvStream] = {}
        self._fin_reported: Set[int] = set()
        self._crypto_queue: List[HandshakeMessage] = []
        self._crypto_offset = 0
        self._seen_crypto_offsets: Set[int] = set()
        self._control_queue: List[Frame] = []
        self._probe_credit = 0  # packets the last PTO may send past cwnd
        self._timer: Optional[Event] = None
        self._closed = False

        # First-frame phase milestones (``repro.cdn.session.PhaseBreakdown``):
        # when the first STREAM frame left, and the retransmit stalls, each
        # opened by a loss declaration or a PTO and closed by the next send.
        self.first_data_sent_at: Optional[float] = None
        self.stalls: List[Tuple[float, float]] = []
        self.stall_opened_at: Optional[float] = None

        # Handshake state.
        self.handshake_complete = False
        self._chlo_sent_at: Optional[float] = None
        self._rej_sent_at: Optional[float] = None
        self._rej_received = False

        # Application callbacks.
        self.on_stream_data: Optional[Callable[[int, bytes, bool], None]] = None
        self.on_client_hello: Optional[
            Callable[[Dict[bytes, bytes], Optional[float]], None]
        ] = None
        self.on_handshake_complete: Optional[Callable[[], None]] = None
        self.on_hx_qos: Optional[Callable[[HxQosFrame], None]] = None

    # ------------------------------------------------------------------
    # Public API

    def start(self) -> None:
        """Client only: launch the handshake (and any queued 0-RTT data)."""
        if self.role != Role.CLIENT:
            raise ValueError("only clients initiate the handshake")
        full = self.handshake_mode == HandshakeMode.ZERO_RTT
        self._crypto_queue.append(chlo(full=full, extra_tags=self._handshake_tags))
        self._chlo_sent_at = self.loop.now
        self._pump()

    def send_stream_data(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        """Queue application bytes on a stream and try to transmit."""
        stream = self._send_streams.get(stream_id)
        if stream is None:
            stream = SendStream(stream_id)
            self._send_streams[stream_id] = stream
        stream.write(data, fin)
        self._pending_stream = self._next_pending_stream()
        self._pump()

    def send_hx_qos(self, frame: HxQosFrame) -> None:
        """Queue a Wira Hx_QoS frame (periodic cookie synchronisation)."""
        self._control_queue.append(frame)
        self._pump()

    def measured_min_rtt(self) -> Optional[float]:
        """Windowed MinRTT — the first Hx_QoS metric (§IV-B)."""
        return self.rtt.min_rtt

    def measured_max_bw(self) -> Optional[float]:
        """Max delivery rate (bps) — the second Hx_QoS metric (§IV-B)."""
        estimate = getattr(self.cc, "bandwidth_estimate", lambda: None)()
        return estimate

    @property
    def bytes_in_flight(self) -> int:
        return self.loss_recovery.bytes_in_flight

    def close(self) -> None:
        """Stop all timers; the connection no longer reacts to input.

        A closed connection calls nobody, so it also lets go of the
        application callbacks: they are bound methods of objects that
        hold this connection, and keeping them would keep both alive
        until a cycle collection.
        """
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.on_stream_data = None
        self.on_client_hello = None
        self.on_handshake_complete = None
        self.on_hx_qos = None

    # ------------------------------------------------------------------
    # Receive path

    def datagram_received(self, datagram: Datagram) -> None:
        if self._closed:
            return
        if datagram.corrupted:
            # A real transport's AEAD rejects a corrupted datagram; the
            # simulator has no packet AEAD, so the fault injector marks
            # the datagrams it mutilates and we model the rejection here.
            self.stats.corrupt_packets += 1
            self._trace_packet_dropped("corrupt", datagram.size)
            return
        now = self.loop.now
        sidecar = datagram.packet
        if isinstance(sidecar, Packet):
            # The sender's packet travelled in place of its bytes.
            packet = sidecar
        else:
            # Bytes from outside a Connection's send path: parse them.
            try:
                packet = Packet.decode(datagram.payload)
            except ValueError:
                # Malformed on the wire (PacketParseError and friends):
                # drop, count, and survive — garbage input must never
                # crash the endpoint (§IV-C graceful degradation).
                self.stats.undecodable_packets += 1
                self._trace_packet_dropped("undecodable", datagram.size)
                return
        self.stats.packets_received += 1
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now,
                "transport:packet_received",
                self._trace_id,
                {"pn": packet.packet_number, "size": datagram.size, "role": self.role.value},
            )
        if self.ack_manager.on_packet_received(
            packet.packet_number, packet.ack_eliciting(), now
        ):
            self.stats.duplicate_packets += 1
        else:
            for frame in packet.frames:
                if isinstance(frame, StreamFrame):
                    self._on_stream(frame)
                elif isinstance(frame, AckFrame):
                    self._on_ack(frame, now)
                elif isinstance(frame, CryptoFrame):
                    self._on_crypto(frame, now)
                elif isinstance(frame, HxQosFrame):
                    if self.on_hx_qos is not None:
                        self.on_hx_qos(frame)
                elif not isinstance(frame, (PingFrame, PaddingFrame, HandshakeDoneFrame)):
                    # The parser admits no other type.
                    raise ValueError(f"unhandled frame {frame!r}")  # pragma: no cover
        self._pump()

    def _on_ack(self, ack: AckFrame, now: float) -> None:
        recovery = self.loss_recovery
        newly_acked, newly_lost = recovery.on_ack_received(ack, now)
        if newly_lost:
            self._handle_losses(newly_lost, now)
        if newly_acked:
            self.cc.on_packets_acked(newly_acked, recovery.bytes_in_flight, now)
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.emit(
                    now,
                    "transport:packet_acked",
                    self._trace_id,
                    {"pns": [p.packet_number for p in newly_acked]},
                )
                self._trace_cc_metrics(now)

    def _trace_packet_dropped(self, reason: str, size: int) -> None:
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                self.loop.now,
                "transport:packet_dropped",
                self._trace_id,
                {"reason": reason, "size": size, "role": self.role.value},
            )

    def _trace_cc_metrics(self, now: float) -> None:
        """Emit ``recovery:metrics_updated`` when cwnd/pacing changed.

        Callers hold the ``_obs.ACTIVE`` guard; deduplicating here keeps
        the high-volume event proportional to actual controller updates.
        """
        bus = _obs.ACTIVE
        if bus is None:
            return
        metrics = (self.cc.congestion_window, self.cc.pacing_rate_bps)
        if metrics == self._last_traced_metrics:
            return
        self._last_traced_metrics = metrics
        bus.emit(
            now,
            "recovery:metrics_updated",
            self._trace_id,
            {
                "cwnd": metrics[0],
                "pacing_bps": metrics[1],
                "inflight": self.bytes_in_flight,
            },
        )

    def _on_crypto(self, frame: CryptoFrame, now: float) -> None:
        if frame.offset in self._seen_crypto_offsets:
            return
        self._seen_crypto_offsets.add(frame.offset)
        try:
            message = HandshakeMessage.decode(frame.data)
        except ValueError:
            # HandshakeParseError on hostile crypto bytes: drop the
            # message, keep the connection alive.
            self.stats.undecodable_packets += 1
            self._trace_packet_dropped("bad_handshake", len(frame.data))
            return
        if message.message_type == HandshakeMessageType.CHLO:
            self._on_chlo(message, now)
        elif message.message_type == HandshakeMessageType.REJ:
            self._on_rej(now)
        elif message.message_type == HandshakeMessageType.SHLO:
            self._on_shlo(now)

    def _on_chlo(self, message: HandshakeMessage, now: float) -> None:
        if self.role != Role.SERVER:
            return
        if not message.is_full_hello:
            # 1-RTT path: demand a full CHLO and remember when we asked,
            # which yields an RTT sample before any data is sent.
            self._crypto_queue.append(rej())
            self._rej_sent_at = now
            return
        if self.handshake_complete:
            return
        rtt_sample: Optional[float] = None
        if self._rej_sent_at is not None:
            rtt_sample = now - self._rej_sent_at
            if rtt_sample > 0:
                self.loss_recovery.on_rtt_sample(rtt_sample, now)
        self.handshake_complete = True
        self.stats.handshake_completed_at = now
        self.stats.handshake_rtt_sample = rtt_sample
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now,
                "transport:handshake_complete",
                self._trace_id,
                {"role": self.role.value, "rtt_sample": rtt_sample},
            )
        if self.on_client_hello is not None:
            self.on_client_hello(message.tags, rtt_sample)
        self._crypto_queue.append(shlo())

    def _on_rej(self, now: float) -> None:
        if self.role != Role.CLIENT or self._rej_received:
            return
        self._rej_received = True
        if self._chlo_sent_at is not None:
            sample = now - self._chlo_sent_at
            if sample > 0:
                self.loss_recovery.on_rtt_sample(sample, now)
        self._crypto_queue.append(chlo(full=True, extra_tags=self._handshake_tags))

    def _on_shlo(self, now: float) -> None:
        if self.role != Role.CLIENT or self.handshake_complete:
            return
        self.handshake_complete = True
        self.stats.handshake_completed_at = now
        if self._chlo_sent_at is not None and self.rtt.min_rtt is None:
            sample = now - self._chlo_sent_at
            if sample > 0:
                self.loss_recovery.on_rtt_sample(sample, now)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now,
                "transport:handshake_complete",
                self._trace_id,
                {"role": self.role.value, "rtt_sample": self.rtt.min_rtt},
            )
        if self.on_handshake_complete is not None:
            self.on_handshake_complete()

    def _on_stream(self, frame: StreamFrame) -> None:
        stream_id = frame.stream_id
        stream = self._recv_streams.get(stream_id)
        if stream is None:
            stream = RecvStream(stream_id)
            self._recv_streams[stream_id] = stream
        try:
            fresh = stream.on_frame(frame.offset, frame.data, frame.fin)
        except ValueError:
            # A frame that contradicts the stream's final size: it is
            # dropped before it touches the stream, and the endpoint
            # survives it like any garbage input (§IV-C).
            self.stats.undecodable_packets += 1
            self._trace_packet_dropped("bad_stream_frame", len(frame.data))
            return
        finished = stream.finished
        newly_finished = finished and stream_id not in self._fin_reported
        if newly_finished:
            self._fin_reported.add(stream_id)
        if (fresh or newly_finished) and self.on_stream_data is not None:
            self.on_stream_data(stream_id, fresh, finished)

    # ------------------------------------------------------------------
    # Loss handling

    def _handle_losses(self, lost: List[SentPacket], now: float) -> None:
        for packet in lost:
            self.stats.packets_lost += 1
            if any(isinstance(f, StreamFrame) for f in packet.frames):
                self.stats.data_packets_lost += 1
            self._requeue_frames(packet)
        self.cc.on_packets_lost(lost, self.loss_recovery.bytes_in_flight, now)
        if self.stall_opened_at is None:
            self.stall_opened_at = now
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now,
                "transport:packet_lost",
                self._trace_id,
                {"pns": [p.packet_number for p in lost]},
            )
            self._trace_cc_metrics(now)

    def _requeue_frames(self, packet: SentPacket) -> None:
        for frame in packet.frames:
            if isinstance(frame, StreamFrame):
                stream = self._send_streams.get(frame.stream_id)
                if stream is None:
                    continue
                if frame.data:
                    stream.on_chunk_lost(frame.offset, len(frame.data))
                    self.stats.bytes_retransmitted += len(frame.data)
                elif frame.fin:
                    stream.resend_fin()
            elif isinstance(frame, CryptoFrame):
                message = HandshakeMessage.decode(frame.data)
                self._crypto_queue.append(message)
            elif isinstance(frame, HxQosFrame):
                self._control_queue.append(frame)
        self._pending_stream = self._next_pending_stream()

    # ------------------------------------------------------------------
    # Send path

    def _can_send_app_data(self) -> bool:
        if self.role == Role.SERVER:
            return self.handshake_complete
        if self.handshake_mode == HandshakeMode.ZERO_RTT:
            return True  # request rides with the CHLO
        return self._rej_received  # 1-RTT: wait out the extra round trip

    def _app_packet_type(self) -> PacketType:
        if self.handshake_complete:
            return PacketType.ONE_RTT
        if self.role == Role.CLIENT:
            return PacketType.ZERO_RTT
        return PacketType.ONE_RTT

    def _pump(self) -> None:
        """Transmit whatever the handshake, cwnd and pacer allow."""
        if self._closed:
            return
        now = self.loop.now
        cc = self.cc
        recovery = self.loss_recovery
        pacer = self.pacer
        rate = cc.pacing_rate_bps
        pacer.set_rate(rate if rate > 1.0 else 1.0, now)

        # Nothing below hands bytes to another stream, so a re-scan is
        # only due when this one runs dry.
        pending = self._pending_stream

        # If only control/handshake traffic is pending, mark the sampler
        # app-limited *before* those packets snapshot their state, so
        # their tiny delivery-rate samples cannot poison the model.
        # ``app_limited_at`` is the in-flight level it was marked at: the
        # mark depends only on that level and on delivered bytes (which
        # only an ACK moves), so a second mark at the same level is void.
        app_limited_at = -1
        if pending is None:
            app_limited_at = recovery.bytes_in_flight
            cc.on_app_limited(app_limited_at)

        # The send gate, packet by packet: handshake messages always leave;
        # a packet on a PTO's probe credit leaves past the congestion window
        # (RFC 9002 §7.5) but is still paced; any other packet needs window
        # room and pacer tokens.
        credit = self._probe_credit
        crypto_queue = self._crypto_queue
        if credit and pending is None and not crypto_queue and not self._control_queue:
            self._control_queue.append(PingFrame())  # nothing to carry (§6.2.4)
        while crypto_queue:
            message = crypto_queue.pop(0)
            frame = CryptoFrame(self._crypto_offset, message.encode())
            self._crypto_offset += len(frame.data)
            packet_type = (
                PacketType.INITIAL if self.role == Role.CLIENT else PacketType.HANDSHAKE
            )
            self._send_packet(packet_type, [frame], True, now)

        pacing_deadline: Optional[float] = None
        if self._can_send_app_data():
            control_queue = self._control_queue
            if pending is not None or control_queue:
                # Sending a packet moves neither the window nor the packet
                # type (only ACKs, losses and the handshake do), so both
                # are read once per pump.
                cwnd = cc.congestion_window
                packet_type = self._app_packet_type()
                while pending is not None or control_queue:
                    if not credit and recovery.bytes_in_flight >= cwnd:
                        break
                    wait = pacer.time_until_send(MSS, now)
                    if wait > 1e-12:
                        pacing_deadline = now + wait
                        if _obs.ACTIVE is not None:
                            _obs.ACTIVE.emit(
                                now,
                                "pacer:tokens_depleted",
                                self._trace_id,
                                {"wait": wait, "rate_bps": cc.pacing_rate_bps},
                            )
                        break
                    frames: List[Frame] = []
                    if control_queue:
                        frames.extend(control_queue)
                        control_queue.clear()
                    # The STREAM frame, when there is one, is always last.
                    stream_data = False
                    if pending is not None:
                        stream_frame = pending.next_chunk(MSS - STREAM_FRAME_OVERHEAD)
                        if stream_frame is not None:
                            frames.append(stream_frame)
                            stream_data = True
                        if not pending.has_data_to_send():
                            pending = self._next_pending_stream()
                    if not frames:
                        break
                    self._send_packet(packet_type, frames, True, now, stream_data)
                    if credit:
                        credit -= 1
                self._pending_stream = pending
            if pending is None and not control_queue:
                credit = 0  # the probes are out; the rest is unused
                in_flight = recovery.bytes_in_flight
                if in_flight != app_limited_at and in_flight < cc.congestion_window:
                    cc.on_app_limited(in_flight)

        # Standalone ACK if one is due and nothing carried it.
        ack_manager = self.ack_manager
        ack_deadline = ack_manager.ack_deadline(now)
        if ack_deadline is not None and ack_deadline <= now:
            # A pending ACK has a largest packet, so this builds one, and
            # building it clears the deadline.
            ack = ack_manager.build_ack(now)
            if ack is not None:
                self._send_packet(self._app_packet_type(), [ack], False, now)
            ack_deadline = None

        self._probe_credit = credit
        self._reschedule_timer(now, ack_deadline, pacing_deadline)

    def _next_pending_stream(self) -> Optional[SendStream]:
        for stream in self._send_streams.values():
            if stream.has_data_to_send():
                return stream
        return None

    def _send_packet(
        self,
        packet_type: PacketType,
        frames: List[Frame],
        in_flight: bool,
        now: float,
        stream_data: bool = False,
    ) -> None:
        """Number, serialise, account for and transmit one packet.

        ``stream_data`` is the caller's knowledge that ``frames`` ends in
        a STREAM frame (only ``_pump``'s packetiser builds one).
        """
        # Piggyback a pending ACK on any outgoing packet.
        if in_flight and self.ack_manager.ack_pending:
            ack = self.ack_manager.build_ack(now)
            if ack is not None:
                frames.insert(0, ack)
        packet_number = self._next_packet_number
        packet = Packet(packet_type, self.connection_id, packet_number, tuple(frames))
        self._next_packet_number = packet_number + 1
        size = packet.wire_size() + UDP_OVERHEAD
        ack_eliciting = packet.ack_eliciting()
        in_flight = in_flight and ack_eliciting
        sent = SentPacket(packet_number, now, size, ack_eliciting, in_flight, packet.frames)
        recovery = self.loss_recovery
        self.cc.on_packet_sent(sent, recovery.bytes_in_flight, now)
        recovery.on_packet_sent(sent)
        if in_flight:
            self.pacer.on_packet_sent(size, now)
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        if stream_data:
            stats.data_packets_sent += 1
            if self.first_data_sent_at is None:
                self.first_data_sent_at = now
        if self.stall_opened_at is not None:
            self.stalls.append((self.stall_opened_at, now))
            self.stall_opened_at = None
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now,
                "transport:packet_sent",
                self._trace_id,
                {
                    "pn": packet_number,
                    "size": size,
                    "type": packet_type.value,
                    "stream_data": stream_data,
                    "role": self.role.value,
                },
            )
        # The packet travels in place of its bytes: an in-process
        # receiver reads the packet, and whoever reads the bytes (a bit
        # flip, a parser) has them encoded then.
        self._send_datagram(Datagram(None, size, False, packet))

    # ------------------------------------------------------------------
    # Timers

    def _reschedule_timer(
        self, now: float, ack_deadline: Optional[float], pacing_deadline: Optional[float]
    ) -> None:
        """Arm the one timer at the earliest of the ACK, loss-time, PTO
        and pacing deadlines; the pump passes the two it computed."""
        if self._closed:
            return
        recovery = self.loss_recovery
        when = ack_deadline
        deadline = recovery.loss_time
        if deadline is not None and (when is None or deadline < when):
            when = deadline
        deadline = recovery.pto_deadline()
        if deadline is not None and (when is None or deadline < when):
            when = deadline
        if pacing_deadline is not None and (when is None or pacing_deadline < when):
            when = pacing_deadline
        timer = self._timer
        if when is None:
            if timer is not None:
                timer.cancel()
                self._timer = None
            return
        if when < now:
            when = now
        if timer is not None and not timer.cancelled and not timer.finished:
            if timer.time == when:  # wira-lint: disable=WL003 - exact reschedule
                # Most pumps recompute the very same deadline; keep the
                # live event instead of a cancel + re-allocate churn.
                return
            timer.cancel()
        self._timer = self.loop.call_at(when, self._on_timer)

    def _on_timer(self) -> None:
        if self._closed:
            return
        now = self.loop.now
        recovery = self.loss_recovery
        lost = recovery.check_loss_timer(now)
        if lost:
            if _obs.ACTIVE is not None:
                _obs.ACTIVE.emit(
                    now,
                    "recovery:loss_timer_fired",
                    self._trace_id,
                    {"n_lost": len(lost)},
                )
            self._handle_losses(lost, now)
        pto = recovery.pto_deadline()
        if pto is not None and pto <= now + 1e-12:
            self._on_pto(now)
        self._pump()

    def _on_pto(self, now: float) -> None:
        if self.loss_recovery.pto_count >= MAX_PTO_COUNT:
            # The peer has been unreachable across every backoff level;
            # abandon the connection rather than retry into a black hole.
            self.close()
            return
        probes = self.loss_recovery.on_pto_fired(now)
        self.stats.pto_count = max(self.stats.pto_count, self.loss_recovery.pto_count)
        if self.stall_opened_at is None:
            self.stall_opened_at = now
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                now,
                "recovery:pto_fired",
                self._trace_id,
                {"pto_count": self.loss_recovery.pto_count, "n_probes": len(probes)},
            )
        # ``_pump`` sends the oldest unacked data again, or one PING.
        for packet in probes:
            self._requeue_frames(packet)
        self._probe_credit = max(1, len(probes))

"""Sender-side loss detection: packet threshold, time threshold and PTO.

Implements the RFC 9002 recovery core the reproduction needs:

* **packet threshold** — a packet is lost once ``kPacketThreshold`` (3)
  later packets are acknowledged;
* **time threshold** — a packet older than ``9/8 · max(sRTT, latestRTT)``
  below the largest acked is lost after a timer;
* **PTO** — when ack-eliciting data is in flight and nothing fires,
  the probe timeout backs off exponentially.

Losses matter doubly here: they feed the congestion controller *and* the
paper's first-frame loss rate metric (FFLR, Fig 14).

An ACK is processed against what is outstanding, not against the packet
numbers it spans: ``_unacked`` is the ascending list of tracked numbers no
ACK has covered yet, and each ACK range is bisected into it.  Declared-lost
packets stay in the list — a late ACK for one must still surface in
``newly_acked`` (spurious-loss accounting, delivery-rate sampling) — so
the work per ACK is O(outstanding) whatever ``largest_acked`` claims.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import sanitize as _sanitize
from repro.quic.frames import AckFrame
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket

K_PACKET_THRESHOLD = 3


@dataclass
class AckResult:
    """Outcome of processing one ACK frame."""

    newly_acked: List[SentPacket] = field(default_factory=list)
    newly_lost: List[SentPacket] = field(default_factory=list)
    rtt_sample: Optional[float] = None
    ack_delay: float = 0.0


class LossRecovery:
    """Tracks unacknowledged packets and classifies their fate."""

    def __init__(
        self,
        rtt: RttEstimator,
        max_ack_delay: float = 0.025,
        *,
        packet_threshold: int = K_PACKET_THRESHOLD,
        time_factor: float = 9.0 / 8.0,
        probe_count: int = 2,
        backoff: float = 2.0,
    ) -> None:
        self.rtt = rtt
        self.max_ack_delay = max_ack_delay
        self.packet_threshold = packet_threshold
        self.time_factor = time_factor
        self.probe_count = probe_count
        self.backoff = backoff
        self.sent_packets: Dict[int, SentPacket] = {}
        self.largest_acked: Optional[int] = None
        self.pto_count = 0
        self.bytes_in_flight = 0
        self._loss_time: Optional[float] = None
        # Unresolved views of ``sent_packets``, insertion-ordered (packet
        # numbers are assigned in send order, so iteration order == pn
        # order).  Every query that used to scan ``sent_packets`` — PTO
        # deadline, probe selection, oldest-unacked, loss detection —
        # reads these instead, turning O(packets-ever-sent) scans into
        # O(unresolved) or O(1) lookups.  Resolution (ack / loss) always
        # happens inside this class, which is what keeps them exact.
        self._unresolved: Dict[int, SentPacket] = {}
        self._ae_unresolved: Dict[int, SentPacket] = {}
        # Tracked packet numbers no ACK has covered yet, ascending (sends
        # arrive in packet-number order).  Lost packets stay until acked.
        self._unacked: List[int] = []

    def on_packet_sent(self, packet: SentPacket) -> None:
        pn = packet.packet_number
        self.sent_packets[pn] = packet
        self._unacked.append(pn)
        self._unresolved[pn] = packet
        if packet.ack_eliciting:
            self._ae_unresolved[pn] = packet
        if packet.in_flight:
            self.bytes_in_flight += packet.size
        if _sanitize.ACTIVE is not None:
            _sanitize.ACTIVE.note_sent_tracked(self, packet.packet_number)

    def _resolve(self, pn: int) -> None:
        """Drop a now-acked/lost packet from the unresolved views."""
        self._unresolved.pop(pn, None)
        self._ae_unresolved.pop(pn, None)

    def on_ack_received(self, ack: AckFrame, now: float) -> AckResult:
        """Process an ACK; updates RTT, detects losses, frees state."""
        if _sanitize.ACTIVE is not None:
            _sanitize.ACTIVE.check_ack(self, ack, now)
        result = AckResult()
        result.ack_delay = ack.ack_delay_us / 1e6

        # Ranges come highest first and each is walked downwards, so
        # ``newly_acked`` is in descending packet-number order — the
        # delivery-rate sampler downstream is order-sensitive.
        newly_acked = result.newly_acked
        sent_packets = self.sent_packets
        unacked = self._unacked
        for low, high in ack.ranges:
            end = bisect_right(unacked, high)
            start = bisect_left(unacked, low, 0, end)
            for pn in reversed(unacked[start:end]):
                packet = sent_packets.get(pn)
                if packet is None or packet.acked:
                    # Garbage-collected, or resolved without an ACK (an
                    # overtaken ACK-only packet): nothing left to do.
                    continue
                packet.acked = True
                self._resolve(pn)
                if packet.in_flight and not packet.lost:
                    self.bytes_in_flight -= packet.size
                newly_acked.append(packet)
            del unacked[start:end]
        # Advance largest_acked on every ACK, including pure duplicates:
        # a duplicate whose acked numbers were all seen (or GC'd) can
        # still carry a larger largest_acked, and packet-threshold loss
        # detection must not stall behind it.
        if self.largest_acked is None or ack.largest_acked > self.largest_acked:
            self.largest_acked = ack.largest_acked
        if not newly_acked:
            # Pure duplicate; still run loss detection (the advanced
            # largest_acked may have pushed packets over the threshold).
            result.newly_lost = self._detect_lost(now)
            return result

        # RTT sample only from the largest newly-acked, and only if it is
        # ack-eliciting (RFC 9002 §5.1).
        largest_packet = newly_acked[0]
        if largest_packet.ack_eliciting and ack.largest_acked == largest_packet.packet_number:
            result.rtt_sample = now - largest_packet.sent_time
            self.rtt.update(result.rtt_sample, result.ack_delay, now)

        result.newly_lost = self._detect_lost(now)
        self.pto_count = 0
        self._garbage_collect()
        return result

    def _detect_lost(self, now: float) -> List[SentPacket]:
        largest_acked = self.largest_acked
        if largest_acked is None:
            return []
        lost: List[SentPacket] = []
        resolved_pns: List[int] = []
        loss_delay = self.rtt.loss_delay(self.time_factor)
        self._loss_time = None
        # pn-ordered, so everything past largest_acked is out of scope.
        for pn, packet in self._unresolved.items():
            if pn > largest_acked:
                break
            if packet.acked or packet.lost:
                resolved_pns.append(pn)
                continue
            if not packet.in_flight:
                # ACK-only packets are not tracked for loss (RFC 9002 §2);
                # resolve them silently once overtaken.
                if largest_acked - pn >= self.packet_threshold:
                    packet.acked = True
                    resolved_pns.append(pn)
                continue
            by_threshold = largest_acked - pn >= self.packet_threshold
            lost_deadline = packet.sent_time + loss_delay
            by_time = lost_deadline <= now
            if by_threshold or by_time:
                packet.lost = True
                if packet.in_flight:
                    self.bytes_in_flight -= packet.size
                lost.append(packet)
                resolved_pns.append(pn)
            elif self._loss_time is None or lost_deadline < self._loss_time:
                self._loss_time = lost_deadline
        for pn in resolved_pns:
            del self._unresolved[pn]
            self._ae_unresolved.pop(pn, None)
        return lost

    def check_loss_timer(self, now: float) -> List[SentPacket]:
        """Run time-threshold detection when the loss timer fires."""
        return self._detect_lost(now)

    @property
    def loss_time(self) -> Optional[float]:
        """Earliest time a pending time-threshold loss will be declared."""
        return self._loss_time

    def _newest_ack_eliciting(self) -> Optional[SentPacket]:
        """Newest unresolved ack-eliciting packet (lazy tail cleanup)."""
        ae = self._ae_unresolved
        while ae:
            pn = next(reversed(ae))
            packet = ae[pn]
            if packet.acked or packet.lost:
                del ae[pn]
                continue
            return packet
        return None

    def pto_deadline(self) -> Optional[float]:
        """Absolute PTO expiry, or ``None`` if nothing needs probing."""
        packet = self._newest_ack_eliciting()
        if packet is None:
            return None
        pto = self.rtt.pto(self.max_ack_delay) * (self.backoff**self.pto_count)
        # sent_time never decreases with pn, so the newest unresolved
        # ack-eliciting packet carries the latest send time.
        return packet.sent_time + pto

    def on_pto_fired(self, now: float) -> List[SentPacket]:
        """Back off and return the unresolved packets to probe with.

        Following RFC 9002, PTO does not itself declare loss; the caller
        retransmits data from the oldest unacked packet(s).
        """
        self.pto_count += 1
        probes: List[SentPacket] = []
        for packet in self._ae_unresolved.values():
            if packet.acked or packet.lost:
                continue
            probes.append(packet)
            if len(probes) == self.probe_count:
                break
        return probes

    def _garbage_collect(self, keep_window: int = 4096) -> None:
        """Drop long-resolved packets to bound memory in long sessions."""
        if len(self.sent_packets) < 2 * keep_window or self.largest_acked is None:
            return
        horizon = self.largest_acked - keep_window
        stale = [
            pn
            for pn, packet in self.sent_packets.items()
            if packet.resolved and pn < horizon
        ]
        for pn in stale:
            del self.sent_packets[pn]
        # A forgotten packet can no longer be acknowledged.
        cut = bisect_left(self._unacked, horizon)
        self._unacked[:cut] = [pn for pn in self._unacked[:cut] if pn in self.sent_packets]

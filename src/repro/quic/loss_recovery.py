"""Sender-side loss detection: packet threshold, time threshold and PTO.

Implements the RFC 9002 recovery core the reproduction needs:

* **packet threshold** — a packet is lost once ``kPacketThreshold``
  later packets are acknowledged;
* **time threshold** — a packet older than ``time_factor · max(sRTT,
  latestRTT)`` below the largest acked is lost after a timer;
* **PTO** — when ack-eliciting data is in flight and nothing fires,
  the probe timeout backs off exponentially.

The two thresholds, the PTO probe count and its backoff come from the
connection's :class:`~repro.quic.config.QuicConfig` (RFC 9002's values
unless a scheme accelerates recovery).

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
from typing import Dict, List, Optional, Tuple

from repro.quic.config import QuicConfig
from repro.quic.frames import AckFrame
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket

#: Resolved packets within this many numbers of ``largest_acked`` are
#: kept; the sweep runs once twice as many are tracked.
GC_KEEP_WINDOW = 4096


class LossRecovery:
    """Tracks unacknowledged packets and classifies their fate."""

    def __init__(self, rtt: RttEstimator, config: QuicConfig) -> None:
        self.rtt = rtt
        self.packet_threshold = config.loss_packet_threshold
        self.time_factor = config.loss_time_factor
        self.probe_count = config.pto_probe_count
        self.backoff = config.pto_backoff
        self.sent_packets: Dict[int, SentPacket] = {}
        self.largest_acked: Optional[int] = None
        self.pto_count = 0
        self.bytes_in_flight = 0
        #: Earliest time a pending time-threshold loss will be declared.
        self.loss_time: Optional[float] = None
        # ``loss_time`` is what loss detection would arm if it ran now,
        # unless the RTT moved or a packet went out at or below
        # ``largest_acked`` since it last ran: only then can a timer that
        # fires before ``loss_time`` declare anything.
        self._loss_time_stale = False
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
        largest_acked = self.largest_acked
        if largest_acked is not None and pn <= largest_acked:
            # Only a peer acking ahead of the sender gets here.
            self._loss_time_stale = True

    def on_rtt_sample(self, rtt_sample: float, now: float) -> None:
        """Feed an RTT sample taken outside an ACK (the handshake's)."""
        self.rtt.update(rtt_sample, now=now)
        self._loss_time_stale = True

    def on_ack_received(
        self, ack: AckFrame, now: float
    ) -> Tuple[List[SentPacket], List[SentPacket]]:
        """Process an ACK; updates RTT, detects losses, frees state.

        Returns ``(newly_acked, newly_lost)``.  Ranges come highest first
        and each is walked downwards, so ``newly_acked`` is in descending
        packet-number order — the delivery-rate sampler downstream is
        order-sensitive.
        """
        newly_acked: List[SentPacket] = []
        sent_packets = self.sent_packets
        unacked = self._unacked
        unresolved = self._unresolved
        ae_unresolved = self._ae_unresolved
        bytes_in_flight = self.bytes_in_flight
        for low, high in ack.ranges:
            end = bisect_right(unacked, high)
            start = bisect_left(unacked, low, 0, end)
            if start == end:
                continue
            for pn in reversed(unacked[start:end]):
                packet = sent_packets.get(pn)
                if packet is None or packet.acked:
                    # Garbage-collected, or resolved without an ACK (an
                    # overtaken ACK-only packet): nothing left to do.
                    continue
                packet.acked = True
                unresolved.pop(pn, None)
                ae_unresolved.pop(pn, None)
                if packet.in_flight and not packet.lost:
                    bytes_in_flight -= packet.size
                newly_acked.append(packet)
            del unacked[start:end]
        self.bytes_in_flight = bytes_in_flight
        # Advance largest_acked on every ACK, including pure duplicates:
        # a duplicate whose acked numbers were all seen (or GC'd) can
        # still carry a larger largest_acked, and packet-threshold loss
        # detection must not stall behind it.
        ack_largest = ack.largest_acked
        largest_acked = self.largest_acked
        if largest_acked is None or ack_largest > largest_acked:
            largest_acked = ack_largest
            self.largest_acked = largest_acked
        if not newly_acked:
            # Pure duplicate; still run loss detection (the advanced
            # largest_acked may have pushed packets over the threshold).
            return newly_acked, self._detect_lost(now)

        # RTT sample only from the largest newly-acked, and only if it is
        # ack-eliciting (RFC 9002 §5.1).
        largest_packet = newly_acked[0]
        if largest_packet.ack_eliciting and ack_largest == largest_packet.packet_number:
            self.rtt.update(now - largest_packet.sent_time, ack.ack_delay_us / 1e6, now)

        newly_lost = self._detect_lost(now)
        self.pto_count = 0
        if len(sent_packets) >= 2 * GC_KEEP_WINDOW:
            self._garbage_collect(largest_acked)
        return newly_acked, newly_lost

    def _detect_lost(self, now: float) -> List[SentPacket]:
        self._loss_time_stale = False
        largest_acked = self.largest_acked
        if largest_acked is None:
            return []
        lost: List[SentPacket] = []
        resolved_pns: List[int] = []
        loss_delay = self.rtt.loss_delay(self.time_factor)
        packet_threshold = self.packet_threshold
        loss_time: Optional[float] = None
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
                if largest_acked - pn >= packet_threshold:
                    packet.acked = True
                    resolved_pns.append(pn)
                continue
            lost_deadline = packet.sent_time + loss_delay
            by_time = lost_deadline <= now
            if by_time or largest_acked - pn >= packet_threshold:
                packet.lost = True
                self.bytes_in_flight -= packet.size
                lost.append(packet)
                resolved_pns.append(pn)
            elif loss_time is None or lost_deadline < loss_time:
                loss_time = lost_deadline
        self.loss_time = loss_time
        for pn in resolved_pns:
            del self._unresolved[pn]
            self._ae_unresolved.pop(pn, None)
        return lost

    def check_loss_timer(self, now: float) -> List[SentPacket]:
        """Run time-threshold detection when the loss timer fires.

        The connection's one timer also serves pacing, ACK and PTO
        deadlines.  A fire before ``loss_time`` finds every pending
        packet short of both thresholds — the same ``largest_acked`` and
        RTT that armed it — so it declares nothing, and returns at once.
        """
        loss_time = self.loss_time
        if not self._loss_time_stale and (loss_time is None or now < loss_time):
            return []
        return self._detect_lost(now)

    def pto_deadline(self) -> Optional[float]:
        """Absolute PTO expiry, or ``None`` if nothing needs probing."""
        # The newest unresolved ack-eliciting packet; resolved ones at
        # the tail are dropped on the way.
        ae = self._ae_unresolved
        while ae:
            pn = next(reversed(ae))
            packet = ae[pn]
            if packet.acked or packet.lost:
                del ae[pn]
                continue
            pto = self.rtt.pto() * (self.backoff**self.pto_count)
            # sent_time never decreases with pn, so the newest unresolved
            # ack-eliciting packet carries the latest send time.
            return packet.sent_time + pto
        return None

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

    def _garbage_collect(self, largest_acked: int) -> None:
        """Drop long-resolved packets to bound memory in long sessions."""
        horizon = largest_acked - GC_KEEP_WINDOW
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

"""BBRv2-style sender: BBRv1 plus inflight caps and a loss response.

"When BBR Meets Live Streaming" (PAPERS.md) observes that BBRv1's
indifference to loss lets its probing phases hold standing queues and
loss bursts exactly where first-frame latency is decided.  BBRv2's
remedies, ported here onto :class:`~repro.quic.cc.bbr.BbrSender` in the
same simplified spirit as the rest of the transport:

* **inflight_hi** — an upper bound on in-flight data, learned from loss.
  The congestion window is clamped to it, so probing can no longer
  overshoot a previously lossy operating point;
* **loss response** — each loss event multiplies the bound by
  :data:`BETA` (0.7, the BBRv2 default), seeding it from the current
  in-flight level on first loss;
* **probe up** — loss-free rounds in PROBE_BW's probing phase raise the
  bound additively (:data:`PROBE_UP_PACKETS` per round), reclaiming
  headroom;
* **startup loss exit** — :data:`FULL_LOSS_COUNT` loss events inside
  one startup round end STARTUP (BBRv2's ``full_loss_cnt``), where
  BBRv1 would keep pushing at 2.885× gain.

Selected via ``QuicConfig(congestion_controller="bbrv2")``, which is
the fixed transport stack of the ``wira_bbr2`` scheme.
"""

from __future__ import annotations

from typing import List, Optional

from repro.quic.cc.bbr import BbrMode, BbrSender
from repro.quic.config import MSS
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket

BETA = 0.7
FULL_LOSS_COUNT = 8
PROBE_UP_PACKETS = 2


class Bbr2Sender(BbrSender):
    """BBRv1 with BBRv2-style inflight caps and loss response."""

    def __init__(self, rtt: RttEstimator) -> None:
        super().__init__(rtt)
        self._probe_up_bytes = PROBE_UP_PACKETS * MSS
        self.inflight_hi: Optional[int] = None
        self._loss_events_in_round = 0
        self._loss_round_end = -1  # packet number closing the loss round

    @property
    def congestion_window(self) -> int:
        cwnd = super().congestion_window
        if self.mode == BbrMode.PROBE_RTT:
            return cwnd
        if self.inflight_hi is not None:
            cwnd = min(cwnd, max(self.inflight_hi, self._min_cwnd))
        return cwnd

    def on_packets_acked(
        self,
        acked: List[SentPacket],
        bytes_in_flight: int,
        now: float,
    ) -> None:
        super().on_packets_acked(acked, bytes_in_flight, now)
        if not acked:
            return
        if self._round_start:
            if (
                self._loss_events_in_round == 0
                and self.inflight_hi is not None
                and self.mode == BbrMode.PROBE_BW
                and self.pacing_gain > 1.0
            ):
                # Loss-free probing round: reclaim headroom additively.
                self.inflight_hi += self._probe_up_bytes
            self._loss_events_in_round = 0

    def on_packets_lost(
        self,
        lost: List[SentPacket],
        bytes_in_flight: int,
        now: float,
    ) -> None:
        if not lost:
            return
        super().on_packets_lost(lost, bytes_in_flight, now)
        # One loss *event* per loss round (a burst detected together
        # counts once; later bursts past the round-closing packet start
        # a new event), mirroring BBRv2's per-round loss accounting.
        largest_lost = max(p.packet_number for p in lost)
        if largest_lost > self._loss_round_end:
            self._loss_round_end = self._largest_sent
            self._loss_events_in_round += 1
            current = self.inflight_hi
            if current is None:
                current = max(bytes_in_flight, self._min_cwnd)
            self.inflight_hi = max(self._min_cwnd, int(current * BETA))
            if (
                self.mode == BbrMode.STARTUP
                and self._loss_events_in_round >= FULL_LOSS_COUNT
            ):
                # BBRv2 startup loss exit: the path told us where the
                # ceiling is; stop probing at high gain.
                self.full_bandwidth_reached = True

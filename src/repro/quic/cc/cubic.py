"""CUBIC congestion control (RFC 8312) with paced sending.

Used as a substrate ablation: the paper deploys Wira on BBRv1, but the
initial-window/initial-rate hooks are controller-agnostic, and comparing
their effect under a loss-based controller is an interesting extension
(see the CC ablation in ``benchmarks/test_bench_ablations.py``).

Pacing follows Linux's heuristic for loss-based controllers: 2 × cwnd/RTT
while in slow start, 1.2 × cwnd/RTT in congestion avoidance.
"""

from __future__ import annotations

from typing import List, Optional

from repro.quic.cc.base import CongestionController
from repro.quic.config import MSS
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket

C_CUBIC = 0.4
BETA_CUBIC = 0.7
SLOW_START_PACING_GAIN = 2.0
CA_PACING_GAIN = 1.2


class CubicSender(CongestionController):
    """RFC 8312 CUBIC with fast convergence."""

    def __init__(self, rtt: RttEstimator) -> None:
        super().__init__(rtt)
        self.ssthresh = float("inf")
        self._w_max = 0.0  # bytes
        self._k = 0.0
        self._epoch_start: Optional[float] = None
        self._recovery_until = -1  # packet number guarding one reaction per RTT
        self._largest_sent = -1
        self._ack_accumulator = 0

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self.ssthresh

    @property
    def pacing_rate_bps(self) -> float:
        if self._initial_pacing_rate_bps is not None and not self.rtt.has_samples:
            return self._initial_pacing_rate_bps
        gain = SLOW_START_PACING_GAIN if self.in_slow_start else CA_PACING_GAIN
        return gain * self._cwnd * 8.0 / self.rtt.smoothed_or_initial()

    def on_packet_sent(self, packet: SentPacket, bytes_in_flight: int, now: float) -> None:
        self._largest_sent = max(self._largest_sent, packet.packet_number)

    def on_packets_acked(
        self,
        acked: List[SentPacket],
        bytes_in_flight: int,
        now: float,
    ) -> None:
        for packet in acked:
            if packet.packet_number <= self._recovery_until:
                continue  # no growth for packets sent before the loss
            if self.in_slow_start:
                self._cwnd += packet.size
            else:
                self._cubic_growth(packet.size, now)

    def _cubic_growth(self, acked_bytes: int, now: float) -> None:
        if self._epoch_start is None:
            self._epoch_start = now
            if self._w_max > self._cwnd:
                self._k = ((self._w_max - self._cwnd) / (C_CUBIC * MSS)) ** (1.0 / 3.0)
            else:
                self._k = 0.0
        t = now - self._epoch_start + self.rtt.smoothed_or_initial()
        w_cubic = C_CUBIC * MSS * (t - self._k) ** 3 + self._w_max
        if w_cubic > self._cwnd:
            # Approach the cubic target over one RTT.
            self._cwnd += int(
                max(1.0, (w_cubic - self._cwnd) / max(1, self._cwnd)) * acked_bytes / MSS * MSS
            )
        else:
            # TCP-friendly region / plateau: grow slowly.
            self._ack_accumulator += acked_bytes
            if self._ack_accumulator >= self._cwnd:
                self._ack_accumulator = 0
                self._cwnd += MSS

    def on_packets_lost(
        self,
        lost: List[SentPacket],
        bytes_in_flight: int,
        now: float,
    ) -> None:
        if not lost:
            return
        largest_lost = max(p.packet_number for p in lost)
        if largest_lost <= self._recovery_until:
            return  # already reacted to this loss episode
        self._recovery_until = self._largest_sent
        if self._cwnd < self._w_max:
            # Fast convergence: release bandwidth for newcomers.
            self._w_max = self._cwnd * (1.0 + BETA_CUBIC) / 2.0
        else:
            self._w_max = float(self._cwnd)
        self._cwnd = max(int(self._cwnd * BETA_CUBIC), 2 * MSS)
        self.ssthresh = self._cwnd
        self._epoch_start = None

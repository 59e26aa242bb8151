"""RTT estimation per RFC 9002 §5, with a windowed minimum.

Besides loss-recovery needs (smoothed RTT, variance, PTO), the estimator
maintains the **windowed MinRTT** that Wira's cookie module synchronises
to clients (§IV-B) and that BBR uses for its model.
"""

from __future__ import annotations

from typing import Optional

from repro.quic.config import MAX_ACK_DELAY, MIN_RTT_WINDOW

K_GRANULARITY = 0.001  # 1ms timer granularity (RFC 9002)


class RttEstimator:
    """Tracks latest / smoothed / min RTT and computes the PTO interval.

    The minimum is windowed over :data:`~repro.quic.config.MIN_RTT_WINDOW`.

    Parameters
    ----------
    initial_rtt:
        Seed value used for the PTO before any sample exists
        (RFC 9002 recommends 333 ms; CDN deployments use lower).
    """

    def __init__(self, initial_rtt: float) -> None:
        if initial_rtt <= 0:
            raise ValueError("initial_rtt must be positive")
        self.initial_rtt = initial_rtt
        self.latest_rtt: Optional[float] = None
        self.smoothed_rtt: Optional[float] = None
        self.rtt_var: Optional[float] = None
        self._min_rtt: Optional[float] = None
        self._min_rtt_time: float = 0.0

    @property
    def has_samples(self) -> bool:
        return self.latest_rtt is not None

    @property
    def min_rtt(self) -> Optional[float]:
        """Windowed minimum RTT; ``None`` until the first sample."""
        return self._min_rtt

    def update(self, rtt_sample: float, ack_delay: float = 0.0, now: float = 0.0) -> None:
        """Feed one RTT sample (seconds).

        ``ack_delay`` is the peer-reported delay between receiving the
        packet and sending the ACK; it is subtracted when doing so does
        not take the sample below the current minimum (RFC 9002 §5.3).
        """
        if rtt_sample <= 0:
            raise ValueError("RTT sample must be positive")
        self.latest_rtt = rtt_sample

        if self._min_rtt is None or now - self._min_rtt_time > MIN_RTT_WINDOW:
            self._min_rtt = rtt_sample
            self._min_rtt_time = now
        elif rtt_sample < self._min_rtt:
            self._min_rtt = rtt_sample
            self._min_rtt_time = now

        adjusted = rtt_sample
        if self._min_rtt is not None and rtt_sample - ack_delay >= self._min_rtt:
            adjusted = rtt_sample - ack_delay

        if self.smoothed_rtt is None:
            self.smoothed_rtt = adjusted
            self.rtt_var = adjusted / 2.0
        else:
            assert self.rtt_var is not None
            self.rtt_var = 0.75 * self.rtt_var + 0.25 * abs(self.smoothed_rtt - adjusted)
            self.smoothed_rtt = 0.875 * self.smoothed_rtt + 0.125 * adjusted

    def pto(self) -> float:
        """Probe timeout interval (RFC 9002 §6.2.1), seconds."""
        if self.smoothed_rtt is None:
            return 2.0 * self.initial_rtt
        assert self.rtt_var is not None
        return self.smoothed_rtt + max(4.0 * self.rtt_var, K_GRANULARITY) + MAX_ACK_DELAY

    def loss_delay(self, factor: float) -> float:
        """Time-threshold loss delay, ``factor`` × max(smoothed, latest).

        RFC 9002 uses 9/8 (``QuicConfig.loss_time_factor``);
        accelerated-recovery schemes pass a lower factor to declare tail
        losses sooner.
        """
        if self.smoothed_rtt is None or self.latest_rtt is None:
            return factor * self.initial_rtt
        return max(
            factor * max(self.smoothed_rtt, self.latest_rtt),
            K_GRANULARITY,
        )

    def smoothed_or_initial(self) -> float:
        """Smoothed RTT, falling back to the configured initial value."""
        return self.smoothed_rtt if self.smoothed_rtt is not None else self.initial_rtt

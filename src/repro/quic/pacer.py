"""Token-bucket pacer.

The pacer spaces packet departures at the congestion controller's pacing
rate.  Wira's second headline knob — ``init_pacing`` (§IV-C, Eq. 2) — is
simply the rate this bucket starts with: too low and the first frame
dribbles out (Fig 2(b), 0.8 Mbps → 302 ms FFCT); too high and the burst
overflows the bottleneck buffer (40 Mbps → >40 % loss).

A small burst allowance (the connection gives it
:data:`~repro.quic.config.PACER_BURST_PACKETS` full packets, matching
Linux's initial quantum behaviour) lets short control exchanges go out
immediately.
"""

from __future__ import annotations


class Pacer:
    """Leaky-bucket packet release scheduler.

    Parameters
    ----------
    rate_bps:
        Initial pacing rate in bits per second.
    burst_bytes:
        Bucket capacity: bytes that may leave back-to-back after idle.
    """

    __slots__ = ("_rate_bps", "burst_bytes", "_tokens", "_last_update")

    def __init__(self, rate_bps: float, burst_bytes: int) -> None:
        if rate_bps <= 0:
            raise ValueError("pacing rate must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self._rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self._tokens = float(burst_bytes)
        self._last_update = 0.0

    @property
    def rate_bps(self) -> float:
        return self._rate_bps

    def set_rate(self, rate_bps: float, now: float) -> None:
        """Change the pacing rate; accrued credit is preserved."""
        if rate_bps <= 0:
            raise ValueError("pacing rate must be positive")
        self._refill(now)
        self._rate_bps = rate_bps

    def _refill(self, now: float) -> None:
        """Accrue credit up to ``now``, capped at the burst.

        Credit only accrues when the clock has moved, so callers already
        refilled at ``now`` (the connection sets the rate once per pump,
        then asks and spends at the same instant) skip the arithmetic.
        """
        if now > self._last_update:
            tokens = self._tokens + (now - self._last_update) * self._rate_bps / 8.0
            burst = float(self.burst_bytes)
            self._tokens = tokens if tokens < burst else burst
            self._last_update = now

    def time_until_send(self, size: int, now: float) -> float:
        """Seconds to wait before a ``size``-byte packet may depart.

        Returns 0.0 when the packet can leave immediately.
        """
        if now > self._last_update:
            self._refill(now)
        tokens = self._tokens
        if tokens >= size:
            return 0.0
        return (size - tokens) * 8.0 / self._rate_bps

    def on_packet_sent(self, size: int, now: float) -> None:
        """Consume credit for a departing packet.

        Tokens may go negative, which naturally delays subsequent
        packets — equivalent to scheduling the next release time.
        """
        if now > self._last_update:
            self._refill(now)
        self._tokens -= size

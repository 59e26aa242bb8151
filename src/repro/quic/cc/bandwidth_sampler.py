"""Per-ACK delivery-rate sampling (BBR bandwidth sampler).

Implements the estimator from draft-cheng-iccrg-delivery-rate-estimation:
each sent packet snapshots the connection's ``delivered`` counter; when
the packet is acknowledged, the delivery rate over the interval is
``Δdelivered / Δtime`` where the interval honours both the send and ack
clocks.  Samples taken while the sender was application-limited are
flagged so BBR does not let them *decrease* the bandwidth estimate — a
detail that matters for short first-frame flows, which are app-limited
almost by definition.
"""

from __future__ import annotations

from typing import Optional

from repro.quic.sent_packet import SentPacket


class BandwidthSampler:
    """Tracks delivered bytes and produces per-ACK rate samples."""

    def __init__(self) -> None:
        self.delivered = 0
        self.delivered_time = 0.0
        self.first_sent_time = 0.0
        self._app_limited_until = 0  # `delivered` value that clears the flag

    @property
    def is_app_limited(self) -> bool:
        return self._app_limited_until > self.delivered

    def on_packet_sent(self, packet: SentPacket, bytes_in_flight: int, now: float) -> None:
        """Snapshot delivery state into the departing packet."""
        if bytes_in_flight == 0:
            # Restarting from idle: reset the send-side clock.
            self.delivered_time = now
            self.first_sent_time = now
        packet.delivered = self.delivered
        packet.delivered_time = self.delivered_time
        packet.first_sent_time = self.first_sent_time
        packet.is_app_limited = self._app_limited_until > self.delivered
        self.first_sent_time = now

    def on_packet_acked(self, packet: SentPacket, now: float) -> Optional[float]:
        """Advance delivery state; return the packet's delivery rate.

        The rate is in bits per second, ``None`` when the packet's
        interval is empty.  The sample's RTT is ``now - packet.sent_time``
        and it is app-limited when ``packet.is_app_limited`` is: the
        caller reads both off the packet.
        """
        delivered = self.delivered + packet.size
        self.delivered = delivered
        self.delivered_time = now

        send_elapsed = packet.sent_time - packet.first_sent_time
        ack_elapsed = now - packet.delivered_time
        interval = ack_elapsed if ack_elapsed > send_elapsed else send_elapsed
        if interval <= 0:
            return None
        return (delivered - packet.delivered) * 8.0 / interval

    def on_app_limited(self, bytes_in_flight: int) -> None:
        """Mark the sampler app-limited until current in-flight drains.

        The flag clears once ``delivered`` catches up, i.e. every byte
        outstanding at this moment (at least one) has been acked.
        """
        self._app_limited_until = self.delivered + (bytes_in_flight if bytes_in_flight > 1 else 1)

"""Congestion-controller interface and the Wira initialisation hooks.

Wira's contribution is *where the controller starts*, not how it adapts:
``set_initial_window`` and ``set_initial_pacing_rate`` are the exact
attachment points the paper adds to LSQUIC's send controller (§V —
"Send Controller will perform the initialization for both cwnd and
pacing rate based FF_Size and Hx_QoS").  They must be called before the
first data packet; implementations may additionally honour later calls
(used when 1-RTT handshakes refine the RTT estimate, §VI).
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.quic.config import INITIAL_WINDOW_PACKETS, MSS
from repro.quic.rtt import RttEstimator
from repro.quic.sent_packet import SentPacket


class CongestionController(abc.ABC):
    """Abstract sender-side congestion controller.

    Subclasses maintain :attr:`congestion_window` (bytes) and
    :attr:`pacing_rate_bps` (bits/second); the connection enforces both.
    It reads the window once per pump, so :meth:`on_packet_sent` and
    :meth:`on_app_limited` must leave it alone, and it marks the sender
    app-limited once per in-flight level, so a second
    :meth:`on_app_limited` with the same bytes in flight and no ACK in
    between must change nothing.
    """

    #: Hex id of the owning connection, set by ``Connection.__init__`` so
    #: controller-level trace events (e.g. BBR mode transitions) can be
    #: attributed without a back-reference cycle.
    _trace_conn: str = ""

    def __init__(self, rtt: RttEstimator) -> None:
        self.rtt = rtt
        self._cwnd = INITIAL_WINDOW_PACKETS * MSS
        self._pacing_rate_bps: Optional[float] = None
        self._initial_pacing_rate_bps: Optional[float] = None

    # ---- Wira hooks -----------------------------------------------------

    def set_initial_window(self, window_bytes: int) -> None:
        """Override the initial congestion window (Eq. 3 of the paper)."""
        if window_bytes < MSS:
            window_bytes = MSS
        self._cwnd = window_bytes
        self.on_initial_window_set(window_bytes)

    def set_initial_pacing_rate(self, rate_bps: float) -> None:
        """Override the initial pacing rate (Eq. 2 of the paper)."""
        if rate_bps <= 0:
            raise ValueError("initial pacing rate must be positive")
        self._initial_pacing_rate_bps = rate_bps
        self.on_initial_pacing_rate_set(rate_bps)

    def on_initial_window_set(self, window_bytes: int) -> None:
        """Subclass hook; default is no extra work."""

    def on_initial_pacing_rate_set(self, rate_bps: float) -> None:
        """Subclass hook; default is no extra work."""

    # ---- State exposed to the connection --------------------------------

    @property
    def congestion_window(self) -> int:
        return self._cwnd

    @property
    def pacing_rate_bps(self) -> float:
        """Current pacing rate.

        Until the controller has measurements it returns the Wira-provided
        initial rate if set, else a conservative ``cwnd / RTT`` estimate.
        """
        if self._pacing_rate_bps is not None:
            return self._pacing_rate_bps
        if self._initial_pacing_rate_bps is not None:
            return self._initial_pacing_rate_bps
        return self._cwnd * 8.0 / self.rtt.smoothed_or_initial()

    # ---- Event feed ------------------------------------------------------

    @abc.abstractmethod
    def on_packet_sent(self, packet: SentPacket, bytes_in_flight: int, now: float) -> None:
        """Called after a packet is handed to the network."""

    @abc.abstractmethod
    def on_packets_acked(
        self,
        acked: List[SentPacket],
        bytes_in_flight: int,
        now: float,
    ) -> None:
        """Called with the newly acknowledged packets of one ACK."""

    @abc.abstractmethod
    def on_packets_lost(
        self,
        lost: List[SentPacket],
        bytes_in_flight: int,
        now: float,
    ) -> None:
        """Called with packets newly declared lost."""

    def on_app_limited(self, bytes_in_flight: int) -> None:
        """The sender ran out of application data (optional hook)."""

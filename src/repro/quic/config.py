"""Transport configuration.

One :class:`QuicConfig` per connection.  A scheme on a non-default
stack (``wira_bbr2``, ``wira_ar``) registers its own fixed config in
:mod:`repro.core.schemes`; the CUBIC substrate ablation sets one through
``SessionSpec.quic_config``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: IPv4 + UDP header bytes added to each datagram on the wire.
UDP_OVERHEAD = 28

#: Token-bucket burst allowance in packets.
PACER_BURST_PACKETS = 10

#: Consecutive probe timeouts before a connection gives up (a pragmatic
#: stand-in for RFC 9000's idle timeout: after ~10 doublings the peer is
#: unreachable for all practical purposes).
MAX_PTO_COUNT = 10


@dataclass
class QuicConfig:
    """Knobs for a :class:`~repro.quic.connection.Connection`.

    Defaults mirror the common QUIC deployment values the paper's LSQUIC
    baseline would use; the Wira schemes override the *initial* cwnd and
    pacing rate through the congestion-controller hooks instead of
    through this config.
    """

    mss: int = 1252
    """Max payload bytes per packet (1500 MTU − IP/UDP/QUIC overhead)."""

    initial_rtt: float = 0.1
    """RTT assumed before any sample exists (PTO seeding)."""

    max_ack_delay: float = 0.025
    """How long a receiver may sit on a pending ACK."""

    ack_every: int = 2
    """Ack-eliciting packets per immediate ACK."""

    initial_window_packets: int = 10
    """Default initial congestion window (RFC 6928) in packets."""

    congestion_controller: str = "bbr"
    """A :data:`repro.quic.cc.CONTROLLERS` name (``bbr``, ``bbrv2``,
    ``cubic``)."""

    loss_packet_threshold: int = 3
    """Packets-past threshold for loss declaration (RFC 9002 §6.1.1)."""

    loss_time_factor: float = 1.125
    """Time-threshold multiplier on max(sRTT, latestRTT) (RFC 9002's
    9/8).  AutoRec-style recovery lowers it to declare tail losses
    sooner."""

    pto_probe_count: int = 2
    """Packets retransmitted per probe timeout."""

    pto_backoff: float = 2.0
    """PTO backoff base (RFC 9002 doubles; accelerated recovery backs
    off more gently)."""

    min_rtt_window: float = 10.0
    """Horizon of the windowed minimum RTT estimate, seconds."""

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if self.initial_rtt <= 0:
            raise ValueError("initial_rtt must be positive")
        if self.ack_every < 1:
            raise ValueError("ack_every must be >= 1")
        if self.loss_packet_threshold < 1:
            raise ValueError("loss_packet_threshold must be >= 1")
        if self.loss_time_factor <= 0:
            raise ValueError("loss_time_factor must be positive")
        if self.pto_probe_count < 1:
            raise ValueError("pto_probe_count must be >= 1")
        if self.pto_backoff < 1.0:
            raise ValueError("pto_backoff must be >= 1")

"""Transport configuration: the settable knobs and the fixed defaults.

A value is a :class:`QuicConfig` field only while a registered scheme or
a caller outside ``tests/`` sets it to a second value.  Today's callers:

* ``initial_rtt`` — the benchmark's drives set 20 ms;
* ``congestion_controller`` — the ``wira_bbr2`` scheme
  (:mod:`repro.core.schemes`) and the CUBIC substrate ablation in
  ``benchmarks/``, through ``SessionSpec.quic_config``;
* the four recovery knobs — the ``wira_ar`` scheme's accelerated
  recovery.

Every other transport value is a deployment default nothing varies: it
is a module constant below, and ``quic/`` and the packet model in
:mod:`repro.core.initializer` read it from here, by name, and nowhere
else.  A constant becomes a field again the day a real caller needs a
second value.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Max payload bytes per packet (1500 MTU − IP/UDP/QUIC overhead).
MSS = 1252

#: Packet header plus STREAM frame fields, upper bound: a full packet
#: carries ``MSS - STREAM_FRAME_OVERHEAD`` bytes of stream data.
STREAM_FRAME_OVERHEAD = 40

#: IPv4 + UDP header bytes added to each datagram on the wire.
UDP_OVERHEAD = 28

#: A full packet on the wire: the window and BDP are accounted in these.
PACKET_WIRE_BYTES = MSS + UDP_OVERHEAD

#: Default initial congestion window (RFC 6928) in packets.
INITIAL_WINDOW_PACKETS = 10

#: Token-bucket burst allowance in packets.
PACER_BURST_PACKETS = 10

#: How long a receiver may sit on a pending ACK, seconds.
MAX_ACK_DELAY = 0.025

#: Ack-eliciting packets per immediate ACK.
ACK_EVERY = 2

#: Horizon of the windowed minimum RTT, seconds (BBRv1's 10 s).
MIN_RTT_WINDOW = 10.0

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

    initial_rtt: float = 0.1
    """RTT assumed before any sample exists (PTO seeding)."""

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

    def __post_init__(self) -> None:
        if self.initial_rtt <= 0:
            raise ValueError("initial_rtt must be positive")
        if self.loss_packet_threshold < 1:
            raise ValueError("loss_packet_threshold must be >= 1")
        if self.loss_time_factor <= 0:
            raise ValueError("loss_time_factor must be positive")
        if self.pto_probe_count < 1:
            raise ValueError("pto_probe_count must be >= 1")
        if self.pto_backoff < 1.0:
            raise ValueError("pto_backoff must be >= 1")

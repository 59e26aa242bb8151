"""Wira configuration knobs (defaults follow the paper)."""

from __future__ import annotations

from dataclasses import dataclass

#: Δ's default, seconds (§IV-C: 60 min).  A cookie manager built without
#: a deployment's Δ uses the same value.
STALENESS_DELTA = 3600.0


@dataclass
class WiraConfig:
    """Parameters of the Wira mechanism.

    Defaults match the paper's deployment choices where stated.
    """

    video_frame_threshold: int = 1
    """Θ_VF — video frames ending the "first frame" (§IV-A, default 1)."""

    sync_period: float = 3.0
    """Hx_QoS synchronisation period in seconds (§IV-B: "set to 3s")."""

    staleness_delta: float = STALENESS_DELTA
    """Δ — cookie age beyond which Hx_QoS is discarded (§IV-C: 60 min)."""

    init_cwnd_exp: int = 42_000
    """Experiential initial cwnd in bytes (corner case 1): "the average
    FF_Size collected from all connections during one week".  The
    paper's fleet average is 43.1 KB (Fig 1(a)); the default here is the
    simulated deployment's own average FF_Size, keeping the A/B-test
    semantics self-consistent."""

    init_rtt_exp: float = 0.050
    """Experiential initial RTT in seconds (corner case 2): the average
    MinRTT across connections during one week, from A/B tests — again
    measured from the simulated deployment itself."""

    min_initial_pacing_bps: float = 100_000.0
    """Safety floor under any computed initial pacing rate."""

    max_initial_cwnd_bytes: int = 2 * 1024 * 1024
    """Safety ceiling on the initial window (anti-amplification-style
    guard against absurd cookie values)."""

    min_initial_cwnd_packets: int = 10
    """Safety floor on the initial window, in packets (RFC 6928's
    standard default).  A corrupt or adversarial FF_Size of a few bytes
    would otherwise initialize a 1-packet window and strangle the
    connection below what any stock kernel would grant; an honest tiny
    first frame loses nothing to the floor (it fits either way)."""

    def __post_init__(self) -> None:
        if self.video_frame_threshold < 1:
            raise ValueError("video_frame_threshold must be >= 1")
        if self.sync_period <= 0:
            raise ValueError("sync_period must be positive")
        if self.staleness_delta <= 0:
            raise ValueError("staleness_delta must be positive")
        if self.init_cwnd_exp <= 0 or self.init_rtt_exp <= 0:
            raise ValueError("experiential defaults must be positive")
        if self.min_initial_cwnd_packets < 1:
            raise ValueError("min_initial_cwnd_packets must be >= 1")

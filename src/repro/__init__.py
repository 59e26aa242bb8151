"""wira-repro: reproduction of Wira (Wu et al., ICDCS 2024).

Wira reduces the first-frame delay of live streaming by initialising
each connection's congestion window from the parsed first-frame size and
its pacing rate from the OD pair's historical QoS, synchronised through
a stateless transport cookie.

Public API tour:

* ``repro.core`` — the mechanism: :class:`~repro.core.FrameParser`
  (Algorithm 1), the transport-cookie codecs and the Table I
  policies (:func:`~repro.core.make_policy`);
* ``repro.cdn`` — run sessions:
  :class:`~repro.cdn.session.StreamingSession`;
* ``repro.quic`` / ``repro.simnet`` / ``repro.media`` — the substrates;
* ``repro.workload`` / ``repro.experiments`` — the paper's evaluation.

See README.md for a quickstart and DESIGN.md for the full inventory.
"""

__version__ = "1.0.0"

from repro.core import (
    BASELINE,
    STATIC_10,
    WIRA,
    WIRA_FF,
    WIRA_HX,
    FrameParser,
    HxQos,
    InitialParams,
    WiraConfig,
)

__all__ = [
    "BASELINE",
    "FrameParser",
    "HxQos",
    "InitialParams",
    "STATIC_10",
    "WIRA",
    "WIRA_FF",
    "WIRA_HX",
    "WiraConfig",
    "__version__",
]

"""Fig 12 — FFCT benefits split by 0-RTT vs 1-RTT establishment.

Paper: 0-RTT streams (~90 % of traffic) improve 9.5 % on average under
Wira (169.0 → 152.9 ms, p90 −16.6 %); 1-RTT streams improve *more* —
21.3 % on average (84.4 → 66.5 ms, p90 −32.5 %) — because the measured
handshake RTT lets the server compute accurate initial parameters before
any data flows.
"""

from __future__ import annotations

from repro.core.schemes import BASELINE
from repro.experiments.common import (
    DeploymentRecords,
    EVAL_SCHEMES,
    HEADLINE_CONFIG,
    PairedTable,
    paired_series,
)
from repro.experiments.runner import run_deployment
from repro.quic.connection import HandshakeMode


def summarize(records: DeploymentRecords) -> PairedTable:
    """FFCT per scheme, grouped by :class:`HandshakeMode`."""
    return paired_series(
        records,
        lambda o: o.result.ffct,
        group=lambda o: o.spec.handshake_mode,
        groups=tuple(HandshakeMode),
    )


def zero_rtt_fraction(table: PairedTable) -> float:
    zero = len(table[HandshakeMode.ZERO_RTT, BASELINE])
    one = len(table[HandshakeMode.ONE_RTT, BASELINE])
    return zero / (zero + one)


def run(config=None) -> PairedTable:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

"""Fig 14 — first-frame loss rate (FFLR).

Paper: Wira reduces the average FFLR from 8.8 % to 6.4 % (a 27.3 %
optimisation) and the 90th percentile from 25.3 % to 16.6 % (34.4 %);
0-RTT streams improve 27.6 % / 36.5 % (avg / p90) and 1-RTT streams
21.4 % / 6.0 %.
"""

from __future__ import annotations

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
    """FFLR per scheme: overall in group ``None``, and per
    :class:`HandshakeMode`."""
    overall = paired_series(records, lambda o: o.result.fflr)
    by_mode = paired_series(
        records,
        lambda o: o.result.fflr,
        group=lambda o: o.spec.handshake_mode,
        groups=tuple(HandshakeMode),
    )
    return {**overall, **by_mode}


def run(config=None) -> PairedTable:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

"""Fig 11 — real-network FFCT benefits of all live streams.

Paper headline: against the experiential baseline (avg 158.9 ms,
p70 130.0 ms, p90 409.6 ms), Wira lowers the average FFCT by 10.6 % (to
142.0 ms), the 70th percentile by 18.7 % and the 90th by 16.7 %, with
Wira(FF) and Wira(Hx) capturing 6.0 % and 7.4 % average gains
respectively.
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

PERCENTILES = (50, 70, 90, 95)


def summarize(records: DeploymentRecords) -> PairedTable:
    """FFCT per scheme, in group ``None``."""
    return paired_series(records, lambda o: o.result.ffct)


def run(config=None) -> PairedTable:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

"""Fig 13 — FFCT benefits under different conditions.

The paper buckets sessions four ways and reports Wira's optimisation
ratio per bucket:

(a) by FF_Size (KB): gains grow with the first frame — 4.1 % at
    (30,50] up to 20.2 % at (80,150];
(b) by MinRTT (ms): gains of 6.6–12.7 % below 100 ms, degrading above
    (stale Hx_QoS hurts);
(c) by MaxBW (Mbps): best in (10,20] (9.4 %), modest at (20,60]
    (4.9 %), <2.8 % below 10 Mbps;
(d) by retransmission ratio: 8.6–17.2 % gains in the (1 %,10 %] band.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.common import (
    DeploymentRecords,
    EVAL_SCHEMES,
    HEADLINE_CONFIG,
    PairedTable,
    SessionOutcome,
    paired_series,
)
from repro.experiments.runner import run_deployment

FF_BUCKETS_KB: Tuple[Tuple[float, float], ...] = ((0, 30), (30, 50), (50, 80), (80, 150), (150, 300))
RTT_BUCKETS_MS: Tuple[Tuple[float, float], ...] = ((0, 30), (30, 60), (60, 100), (100, 1000))
BW_BUCKETS_MBPS: Tuple[Tuple[float, float], ...] = ((0, 10), (10, 20), (20, 60), (60, 200))
RETX_BUCKETS_PCT: Tuple[Tuple[float, float], ...] = ((0, 1), (1, 10), (10, 30))

#: The four panels, (a)–(d), by dimension name.
DIMENSIONS: Dict[str, Tuple[Tuple[float, float], ...]] = {
    "ff": FF_BUCKETS_KB,
    "rtt": RTT_BUCKETS_MS,
    "bw": BW_BUCKETS_MBPS,
    "retx": RETX_BUCKETS_PCT,
}


def _bucket_label(low: float, high: float) -> str:
    return f"({low:g},{high:g}]"


def _bucket_of(value: float, buckets) -> Optional[str]:
    for low, high in buckets:
        if low < value <= high or (value == 0 and low == 0):
            return _bucket_label(low, high)
    return None


def _dimension_value(outcome: SessionOutcome, dimension: str) -> float:
    result, spec = outcome.result, outcome.spec
    if dimension == "ff":
        return (result.ff_size_parsed or 0) / 1000.0
    if dimension == "rtt":
        return spec.conditions.rtt * 1000.0
    if dimension == "bw":
        return spec.conditions.bandwidth_bps / 1e6
    if dimension == "retx":
        return result.final_server_stats.data_loss_rate() * 100.0
    raise ValueError(dimension)


def summarize(records: DeploymentRecords) -> Dict[str, PairedTable]:
    """Per dimension, FFCT per scheme grouped by the baseline session's
    bucket, buckets in definition order."""
    return {
        dimension: paired_series(
            records,
            lambda o: o.result.ffct,
            group=lambda o, d=dimension, e=edges: _bucket_of(_dimension_value(o, d), e),
            groups=[_bucket_label(low, high) for low, high in edges],
        )
        for dimension, edges in DIMENSIONS.items()
    }


def buckets(table: PairedTable) -> List[str]:
    """The buckets holding any session, in definition order."""
    return list(dict.fromkeys(label for (label, _), series in table.items() if len(series)))


def run(config=None) -> Dict[str, PairedTable]:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

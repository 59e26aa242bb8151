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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.schemes import BASELINE, SchemeSpec
from repro.experiments.common import (
    DeploymentRecords,
    EVAL_SCHEMES,
    HEADLINE_CONFIG,
    SessionOutcome,
)
from repro.experiments.runner import run_deployment
from repro.metrics.stats import mean

FF_BUCKETS_KB: Tuple[Tuple[float, float], ...] = ((0, 30), (30, 50), (50, 80), (80, 150), (150, 300))
RTT_BUCKETS_MS: Tuple[Tuple[float, float], ...] = ((0, 30), (30, 60), (60, 100), (100, 1000))
BW_BUCKETS_MBPS: Tuple[Tuple[float, float], ...] = ((0, 10), (10, 20), (20, 60), (60, 200))
RETX_BUCKETS_PCT: Tuple[Tuple[float, float], ...] = ((0, 1), (1, 10), (10, 30))


def _bucket_label(low: float, high: float) -> str:
    return f"({low:g},{high:g}]"


def _bucket_of(value: float, buckets) -> Optional[str]:
    for low, high in buckets:
        if low < value <= high or (value == 0 and low == 0):
            return _bucket_label(low, high)
    return None


@dataclass
class BucketedFfct:
    """Mean FFCT per (dimension bucket, scheme)."""

    dimension: str
    table: Dict[str, Dict[SchemeSpec, List[float]]]

    def mean_ffct(self, bucket: str, scheme: SchemeSpec) -> Optional[float]:
        samples = self.table.get(bucket, {}).get(scheme, [])
        return mean(samples) if samples else None

    def improvement(self, bucket: str, scheme: SchemeSpec) -> Optional[float]:
        base = self.mean_ffct(bucket, BASELINE)
        ours = self.mean_ffct(bucket, scheme)
        if base is None or ours is None or base == 0:
            return None
        return (base - ours) / base

    def buckets(self) -> List[str]:
        return [b for b in self.table if any(self.table[b].values())]


@dataclass
class Fig13Result:
    by_ff: BucketedFfct
    by_rtt: BucketedFfct
    by_bw: BucketedFfct
    by_retx: BucketedFfct


def _dimension_value(outcome: SessionOutcome, dimension: str) -> Optional[float]:
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


def _bucketize(records: DeploymentRecords, dimension: str, buckets) -> BucketedFfct:
    table: Dict[str, Dict[SchemeSpec, List[float]]] = {
        _bucket_label(lo, hi): {s: [] for s in records} for lo, hi in buckets
    }
    # Bucket by the *baseline* replay's dimension value so the same
    # session lands in the same bucket for every scheme (paired view).
    baseline = records[BASELINE]
    for index, base_outcome in enumerate(baseline):
        value = _dimension_value(base_outcome, dimension)
        if value is None:
            continue
        bucket = _bucket_of(value, buckets)
        if bucket is None:
            continue
        for scheme, outcomes in records.items():
            ffct = outcomes[index].result.ffct
            if ffct is not None:
                table[bucket][scheme].append(ffct)
    return BucketedFfct(dimension, table)


def summarize(records: DeploymentRecords) -> Fig13Result:
    return Fig13Result(
        by_ff=_bucketize(records, "ff", FF_BUCKETS_KB),
        by_rtt=_bucketize(records, "rtt", RTT_BUCKETS_MS),
        by_bw=_bucketize(records, "bw", BW_BUCKETS_MBPS),
        by_retx=_bucketize(records, "retx", RETX_BUCKETS_PCT),
    )


def run(config=None) -> Fig13Result:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

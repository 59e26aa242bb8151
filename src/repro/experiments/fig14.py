"""Fig 14 — first-frame loss rate (FFLR).

Paper: Wira reduces the average FFLR from 8.8 % to 6.4 % (a 27.3 %
optimisation) and the 90th percentile from 25.3 % to 16.6 % (34.4 %);
0-RTT streams improve 27.6 % / 36.5 % (avg / p90) and 1-RTT streams
21.4 % / 6.0 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.schemes import BASELINE, SchemeSpec
from repro.experiments.common import (
    DeploymentRecords,
    EVAL_SCHEMES,
    HEADLINE_CONFIG,
)
from repro.experiments.runner import run_deployment
from repro.metrics.stats import mean, percentile
from repro.quic.connection import HandshakeMode


@dataclass
class FflrSeries:
    samples: List[float]

    @property
    def avg(self) -> float:
        return mean(self.samples)

    def p(self, q: float) -> float:
        return percentile(self.samples, q)


@dataclass
class Fig14Result:
    overall: Dict[SchemeSpec, FflrSeries]
    by_mode: Dict[tuple, FflrSeries]

    def improvement(self, scheme: SchemeSpec, q: Optional[float] = None,
                    mode: Optional[HandshakeMode] = None) -> float:
        if mode is None:
            base, ours = self.overall[BASELINE], self.overall[scheme]
        else:
            base = self.by_mode[(mode, BASELINE)]
            ours = self.by_mode[(mode, scheme)]
        base_v = base.avg if q is None else base.p(q)
        ours_v = ours.avg if q is None else ours.p(q)
        if base_v == 0:
            return 0.0
        return (base_v - ours_v) / base_v


def summarize(records: DeploymentRecords) -> Fig14Result:
    overall: Dict[SchemeSpec, FflrSeries] = {}
    by_mode: Dict[tuple, FflrSeries] = {}
    for scheme, outcomes in records.items():
        all_samples = [o.result.fflr for o in outcomes if o.result.fflr is not None]
        overall[scheme] = FflrSeries(all_samples)
        for mode in HandshakeMode:
            samples = [
                o.result.fflr
                for o in outcomes
                if o.result.fflr is not None and o.spec.handshake_mode == mode
            ]
            by_mode[(mode, scheme)] = FflrSeries(samples)
    return Fig14Result(overall, by_mode)


def run(config=None) -> Fig14Result:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

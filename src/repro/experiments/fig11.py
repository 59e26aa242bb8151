"""Fig 11 — real-network FFCT benefits of all live streams.

Paper headline: against the experiential baseline (avg 158.9 ms,
p70 130.0 ms, p90 409.6 ms), Wira lowers the average FFCT by 10.6 % (to
142.0 ms), the 70th percentile by 18.7 % and the 90th by 16.7 %, with
Wira(FF) and Wira(Hx) capturing 6.0 % and 7.4 % average gains
respectively.
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
from repro.metrics.collector import MetricSeries
from repro.metrics.stats import mean, percentile

PERCENTILES = (50, 70, 90, 95)


@dataclass
class SchemeFfct:
    scheme: SchemeSpec
    samples: List[float]

    @property
    def avg(self) -> float:
        return mean(self.samples)

    def p(self, q: float) -> float:
        return percentile(self.samples, q)


@dataclass
class Fig11Result:
    by_scheme: Dict[SchemeSpec, SchemeFfct]

    def improvement(self, scheme: SchemeSpec, q: Optional[float] = None) -> float:
        """Optimisation ratio vs. the baseline (positive = faster)."""
        base = self.by_scheme[BASELINE]
        ours = self.by_scheme[scheme]
        base_v = base.avg if q is None else base.p(q)
        ours_v = ours.avg if q is None else ours.p(q)
        return (base_v - ours_v) / base_v


def summarize(records: DeploymentRecords) -> Fig11Result:
    by_scheme = {}
    for scheme, outcomes in records.items():
        samples = [o.result.ffct for o in outcomes if o.result.ffct is not None]
        by_scheme[scheme] = SchemeFfct(scheme, samples)
    return Fig11Result(by_scheme)


def run(config=None) -> Fig11Result:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

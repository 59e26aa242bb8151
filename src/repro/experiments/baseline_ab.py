"""§VI preamble — choosing the baseline via A/B test.

The paper justifies its experiential baseline over Google's
``init_cwnd = 10`` recommendation: the static window yields an average
(p90) FFCT of 201.0 ms (476.5 ms), versus 158.9 ms (409.6 ms) for the
experiential configuration — so the *stronger* policy is used as the
comparison baseline throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.schemes import BASELINE, STATIC_10, SchemeSpec
from repro.experiments.common import HEADLINE_CONFIG
from repro.experiments.runner import run_deployment
from repro.metrics.stats import mean, percentile


@dataclass
class AbResult:
    ffct: Dict[SchemeSpec, List[float]]

    def avg(self, scheme: SchemeSpec) -> float:
        return mean(self.ffct[scheme])

    def p90(self, scheme: SchemeSpec) -> float:
        return percentile(self.ffct[scheme], 90)


def run(config=None) -> AbResult:
    records = run_deployment(
        config or HEADLINE_CONFIG, schemes=(STATIC_10, BASELINE)
    )
    ffct = {
        scheme: [o.result.ffct for o in outcomes if o.result.ffct is not None]
        for scheme, outcomes in records.items()
    }
    return AbResult(ffct)

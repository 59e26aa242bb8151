"""Fig 4 — QoS stability *within* the same OD pair.

Per OD pair, the CV of MinRTT/MaxBW across repeat sessions at bounded
intervals.  Paper findings reproduced here:

(i)   average MinRTT CV grows slowly with the interval:
      9.9 / 10.2 / 10.5 / 11.2 % at (0,5] / (0,10] / (0,30] / (0,60] min;
(ii)  ~80 % of OD pairs keep MinRTT CV below ≈14–16 %;
(iii) MaxBW is noisier — its median CV exceeds 22.6 %;
(iv)  both are far more stable than the same metrics within a UG
      (compare Fig 3's 36.4 % / 51.6 %).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.metrics.stats import Cdf, coefficient_of_variation, mean, percentile
from repro.workload.network import NetworkModel

INTERVALS_MINUTES = (5.0, 10.0, 30.0, 60.0)


@dataclass
class IntervalDispersion:
    interval_minutes: float
    rtt_cvs: List[float]
    bw_cvs: List[float]

    @property
    def avg_rtt_cv(self) -> float:
        return mean(self.rtt_cvs)

    @property
    def avg_bw_cv(self) -> float:
        return mean(self.bw_cvs)

    @property
    def p80_rtt_cv(self) -> float:
        return percentile(self.rtt_cvs, 80)

    @property
    def p50_bw_cv(self) -> float:
        return percentile(self.bw_cvs, 50)


@dataclass
class Fig4Result:
    by_interval: Dict[float, IntervalDispersion] = field(default_factory=dict)


def run(n_od_pairs: int = 250, sessions_per_od: int = 16, seed: int = 17) -> Fig4Result:
    model = NetworkModel(random.Random(seed))
    ods = [model.sample_od_pair() for _ in range(n_od_pairs)]
    result = Fig4Result()
    for interval in INTERVALS_MINUTES:
        rtt_cvs, bw_cvs = [], []
        for i, od in enumerate(ods):
            rng = random.Random(f"fig4:{seed}:{interval}:{i}")
            conds = [od.conditions_at(rng, interval_minutes=interval) for _ in range(sessions_per_od)]
            rtt_cvs.append(coefficient_of_variation([c.rtt for c in conds]))
            bw_cvs.append(coefficient_of_variation([c.bandwidth_bps for c in conds]))
        result.by_interval[interval] = IntervalDispersion(interval, rtt_cvs, bw_cvs)
    return result

"""Fig 15 — influence on follow-up frame transmissions.

Paper: Wira's FFCT gain (158.5 → 142.0 ms) carries through to the 2nd–4th
video frames with stable optimisation ratios (10.9–13.0 %), and the
follow-up frame loss rate *improves* (9.0–9.2 % baseline vs 6.7–7.1 %
Wira) — i.e. first-frame acceleration does not congest the tail.
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
from repro.metrics.stats import mean

FRAMES = (1, 2, 3, 4)


@dataclass
class Fig15Result:
    completion: Dict[tuple, List[float]]  # (scheme, k) -> times
    loss: Dict[tuple, List[float]]  # (scheme, k) -> loss rates

    def mean_completion(self, scheme: SchemeSpec, k: int) -> Optional[float]:
        samples = self.completion.get((scheme, k), [])
        return mean(samples) if samples else None

    def mean_loss(self, scheme: SchemeSpec, k: int) -> Optional[float]:
        samples = self.loss.get((scheme, k), [])
        return mean(samples) if samples else None

    def improvement(self, scheme: SchemeSpec, k: int) -> Optional[float]:
        base = self.mean_completion(BASELINE, k)
        ours = self.mean_completion(scheme, k)
        if base is None or ours is None:
            return None
        return (base - ours) / base


def summarize(records: DeploymentRecords) -> Fig15Result:
    completion: Dict[tuple, List[float]] = {}
    loss: Dict[tuple, List[float]] = {}
    for scheme, outcomes in records.items():
        for k in FRAMES:
            times = []
            losses = []
            for outcome in outcomes:
                t = outcome.result.frame_time(k)
                if t is not None:
                    times.append(t)
                lr = outcome.result.frame_loss_rate(k)
                if lr is not None:
                    losses.append(lr)
            completion[(scheme, k)] = times
            loss[(scheme, k)] = losses
    return Fig15Result(completion, loss)


def run(config=None) -> Fig15Result:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

"""Fig 12 — FFCT benefits split by 0-RTT vs 1-RTT establishment.

Paper: 0-RTT streams (~90 % of traffic) improve 9.5 % on average under
Wira (169.0 → 152.9 ms, p90 −16.6 %); 1-RTT streams improve *more* —
21.3 % on average (84.4 → 66.5 ms, p90 −32.5 %) — because the measured
handshake RTT lets the server compute accurate initial parameters before
any data flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

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
class ModeFfct:
    mode: HandshakeMode
    scheme: SchemeSpec
    samples: List[float]

    @property
    def avg(self) -> float:
        return mean(self.samples)

    def p(self, q: float) -> float:
        return percentile(self.samples, q)


@dataclass
class Fig12Result:
    by_mode_scheme: Dict[tuple, ModeFfct]

    def get(self, mode: HandshakeMode, scheme: SchemeSpec) -> ModeFfct:
        return self.by_mode_scheme[(mode, scheme)]

    def improvement(self, mode: HandshakeMode, scheme: SchemeSpec, q=None) -> float:
        base = self.get(mode, BASELINE)
        ours = self.get(mode, scheme)
        base_v = base.avg if q is None else base.p(q)
        ours_v = ours.avg if q is None else ours.p(q)
        return (base_v - ours_v) / base_v

    def zero_rtt_fraction(self) -> float:
        zero = len(self.get(HandshakeMode.ZERO_RTT, BASELINE).samples)
        one = len(self.get(HandshakeMode.ONE_RTT, BASELINE).samples)
        return zero / (zero + one)


def summarize(records: DeploymentRecords) -> Fig12Result:
    by_mode_scheme = {}
    for scheme, outcomes in records.items():
        for mode in HandshakeMode:
            samples = [
                o.result.ffct
                for o in outcomes
                if o.result.ffct is not None and o.spec.handshake_mode == mode
            ]
            by_mode_scheme[(mode, scheme)] = ModeFfct(mode, scheme, samples)
    return Fig12Result(by_mode_scheme)


def run(config=None) -> Fig12Result:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

"""Fig 15 — influence on follow-up frame transmissions.

Paper: Wira's FFCT gain (158.5 → 142.0 ms) carries through to the 2nd–4th
video frames with stable optimisation ratios (10.9–13.0 %), and the
follow-up frame loss rate *improves* (9.0–9.2 % baseline vs 6.7–7.1 %
Wira) — i.e. first-frame acceleration does not congest the tail.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.common import (
    DeploymentRecords,
    EVAL_SCHEMES,
    HEADLINE_CONFIG,
    PairedTable,
    paired_series,
)
from repro.experiments.runner import run_deployment

FRAMES = (1, 2, 3, 4)


def summarize(
    records: DeploymentRecords,
) -> Tuple[Dict[int, PairedTable], Dict[int, PairedTable]]:
    """Per video frame k: (completion times, loss rates) per scheme."""
    completion = {
        k: paired_series(records, lambda o, k=k: o.result.frame_time(k))
        for k in FRAMES
    }
    loss = {
        k: paired_series(records, lambda o, k=k: o.result.frame_loss_rate(k))
        for k in FRAMES
    }
    return completion, loss


def run(config=None) -> Tuple[Dict[int, PairedTable], Dict[int, PairedTable]]:
    records = run_deployment(config or HEADLINE_CONFIG, EVAL_SCHEMES)
    return summarize(records)

"""Experiment runners — one module per table/figure of the paper.

Each runner regenerates its artefact's rows/series and returns plain
data structures; the benchmarks under ``benchmarks/`` invoke these and
print paper-style tables.  Figs 11–15 and the §VI A/B summarise one
deployment replay the same way: a paired table of
:class:`~repro.metrics.collector.MetricSeries`, one per (group,
scheme), from :func:`~repro.experiments.common.paired_series`, and
every gain is :func:`~repro.experiments.common.gain` over the
baseline.  See DESIGN.md's experiment index for the
mapping and EXPERIMENTS.md for paper-vs-measured numbers.
"""

from repro.experiments.common import (
    DeploymentRecords,
    SessionOutcome,
    run_testbed_session,
)
from repro.experiments.runner import run_deployment

__all__ = [
    "DeploymentRecords",
    "SessionOutcome",
    "run_deployment",
    "run_testbed_session",
]

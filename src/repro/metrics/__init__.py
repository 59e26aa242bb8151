"""Measurement and reporting utilities for the evaluation."""

from repro.metrics.stats import (
    Cdf,
    coefficient_of_variation,
    mean,
    percentile,
)
from repro.metrics.collector import MetricSeries
from repro.metrics.report import Table, format_ms, format_pct
from repro.metrics.sketch import (
    DEFAULT_ALPHA,
    ExactSum,
    QuantileSketch,
    StatAccumulator,
)

__all__ = [
    "Cdf",
    "DEFAULT_ALPHA",
    "ExactSum",
    "MetricSeries",
    "QuantileSketch",
    "StatAccumulator",
    "Table",
    "coefficient_of_variation",
    "format_ms",
    "format_pct",
    "mean",
    "percentile",
]

"""Sample collection across sessions and schemes."""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.stats import mean, percentile


class MetricSeries:
    """A series of float samples with the paper's summaries.

    Every value is retained, so averages and percentiles are exact.
    Each cell of a figure's paired table
    (:func:`repro.experiments.common.paired_series`) is one series, and
    every gain a figure reports is :meth:`improvement_over` the
    baseline's series.  Fleet-scale campaigns, where retaining samples
    is the memory wall, fold into :mod:`repro.metrics.sketch` instead.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def add(self, value: Optional[float]) -> None:
        """Record a sample; ``None`` values are skipped (incomplete)."""
        if value is not None:
            self.samples.append(float(value))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def avg(self) -> Optional[float]:
        """The mean, or ``None`` for an empty series."""
        return mean(self.samples) if self.samples else None

    def p(self, q: float) -> Optional[float]:
        """The q-th percentile, or ``None`` for an empty series."""
        return percentile(self.samples, q) if self.samples else None

    def improvement_over(
        self, other: "MetricSeries", q: Optional[float] = None
    ) -> Optional[float]:
        """Optimisation ratio vs. a baseline series (positive = better).

        ``q=None`` compares averages; otherwise the q-th percentiles.
        Matches the paper's "optimization ratio": (base − ours) / base.
        Returns ``None`` — rendered as ``-`` by ``format_pct`` — when the
        ratio is undefined: either series empty, or the baseline zero.
        A silent ``0.0`` here used to make an incomparable pair look like
        "no improvement".
        """
        ours = self.avg if q is None else self.p(q)
        base = other.avg if q is None else other.p(q)
        if ours is None or base is None or base == 0:
            return None
        return (base - ours) / base

"""Sample collection across sessions and schemes."""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.metrics.sketch import QuantileSketch, SketchCdf, StatAccumulator
from repro.metrics.stats import Cdf, mean, percentile


class MetricSeries:
    """A named series of float samples with the paper's summaries.

    Two storage backends share one query API:

    * **samples** (default) — every value is retained; percentiles and
      CDFs are exact.  Right for figure-scale runs (10^2–10^4 samples).
    * **sketch** — pass ``sketch=QuantileSketch(...)`` (or use
      :meth:`sketched`) and values fold into fixed-size mergeable state:
      exact count/mean via :class:`StatAccumulator`, percentiles/CDF via
      the sketch within its documented relative-error bound.  Right for
      fleet-scale campaigns where retaining samples is the memory wall.

    ``improvement_over`` works identically on either backend (it only
    consumes averages and percentiles).
    """

    def __init__(self, name: str, sketch: Optional[QuantileSketch] = None) -> None:
        self.name = name
        self._sketch: Optional[QuantileSketch] = sketch
        #: Retained samples — ``None`` under the sketch backend, where
        #: retention is exactly what we are avoiding.
        self.samples: Optional[List[float]] = None if sketch is not None else []
        self._stats: Optional[StatAccumulator] = (
            StatAccumulator() if sketch is not None else None
        )

    @classmethod
    def sketched(cls, name: str, alpha: Optional[float] = None) -> "MetricSeries":
        """A series on the bounded-memory sketch backend."""
        sketch = QuantileSketch() if alpha is None else QuantileSketch(alpha)
        return cls(name, sketch=sketch)

    @property
    def uses_sketch(self) -> bool:
        return self._sketch is not None

    def add(self, value: Optional[float]) -> None:
        """Record a sample; ``None`` values are skipped (incomplete)."""
        if value is None:
            return
        if self._sketch is not None:
            assert self._stats is not None
            self._sketch.add(float(value))
            self._stats.add(float(value))
        else:
            assert self.samples is not None
            self.samples.append(float(value))

    def __len__(self) -> int:
        if self._sketch is not None:
            return self._sketch.count
        assert self.samples is not None
        return len(self.samples)

    @property
    def avg(self) -> float:
        if self._stats is not None:
            value = self._stats.mean
            if value is None:
                raise ValueError("mean of empty sequence")
            return value
        assert self.samples is not None
        return mean(self.samples)

    def p(self, q: float) -> float:
        if self._sketch is not None:
            return self._sketch.percentile(q)
        assert self.samples is not None
        return percentile(self.samples, q)

    def cdf(self) -> Union[Cdf, SketchCdf]:
        if self._sketch is not None:
            return self._sketch.cdf()
        assert self.samples is not None
        return Cdf(self.samples)

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
        if len(self) == 0 or len(other) == 0:
            return None
        ours = self.avg if q is None else self.p(q)
        base = other.avg if q is None else other.p(q)
        if base == 0:
            return None
        return (base - ours) / base


class SchemeCollector:
    """Samples bucketed by (scheme, metric) with optional sub-buckets."""

    def __init__(self) -> None:
        self._series: Dict[tuple, MetricSeries] = {}

    def series(self, scheme: str, metric: str, bucket: str = "") -> MetricSeries:
        key = (scheme, metric, bucket)
        if key not in self._series:
            self._series[key] = MetricSeries(f"{scheme}/{metric}" + (f"/{bucket}" if bucket else ""))
        return self._series[key]

    def add(self, scheme: str, metric: str, value: Optional[float], bucket: str = "") -> None:
        self.series(scheme, metric, bucket).add(value)

    def schemes(self) -> List[str]:
        return sorted({scheme for scheme, _, _ in self._series})

    def buckets(self, metric: str) -> List[str]:
        return sorted({b for _, m, b in self._series if m == metric and b})

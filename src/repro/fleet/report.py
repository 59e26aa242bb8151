"""Campaign reports: deterministic JSON summaries of a fleet run.

The report is a pure function of the merged
:class:`~repro.fleet.aggregate.CampaignAggregate` — no timestamps, no
host details, nothing environment-dependent — so its canonical JSON
encoding (and hence :func:`report_hash`) is the campaign's identity:
two runs agree iff their reports hash identically.  The serial-versus-
sharded and resume-versus-uninterrupted equivalence tests, and the CI
fleet smoke job, all compare exactly this hash.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from repro.cdn.session import PHASES
from repro.fleet.aggregate import CampaignAggregate, SchemeAggregate
from repro.fleet.checkpoint import canonical_json

#: Report percentiles, mirroring the paper's §VI tail emphasis.
PERCENTILES = (50, 90, 99)


def report_hash(report: Dict[str, object]) -> str:
    return hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest()


def _metric_summary(agg: SchemeAggregate, which: str) -> Optional[Dict[str, object]]:
    stats = agg.ffct_stats if which == "ffct" else agg.fflr_stats
    sketch = agg.ffct_sketch if which == "ffct" else agg.fflr_sketch
    if stats.count == 0:
        return None
    summary: Dict[str, object] = {
        "count": stats.count,
        "mean": stats.mean,
        "min": stats.min,
        "max": stats.max,
    }
    for p in PERCENTILES:
        summary[f"p{p}"] = sketch.percentile(p)
    return summary


def _scheme_summary(agg: SchemeAggregate) -> Dict[str, object]:
    summary: Dict[str, object] = {
        "sessions": agg.sessions,
        "completed": agg.completed,
        "completion_rate": agg.completed / agg.sessions if agg.sessions else None,
        "first_sessions": agg.first_sessions,
        "zero_rtt": agg.zero_rtt,
        "cookie_delivered": agg.cookie_delivered,
        "used_cookie": agg.used_cookie,
        "ffct": _metric_summary(agg, "ffct"),
        "fflr": _metric_summary(agg, "fflr"),
        "phases": _phase_summary(agg),
    }
    return summary


def _phase_summary(agg: SchemeAggregate) -> Optional[Dict[str, object]]:
    """Mean seconds per FFCT phase; ``None`` when no session carried a
    breakdown (none reached its first frame, or all were measured over
    sockets by :mod:`repro.serve`)."""
    if agg.phase_sessions == 0:
        return None
    return {
        "sessions": agg.phase_sessions,
        "mean": {name: agg.phase_stats[name].mean for name in PHASES},
    }


def _improvements(
    base: SchemeAggregate, other: SchemeAggregate
) -> Optional[Dict[str, float]]:
    """Relative FFCT reduction vs baseline at each report percentile."""
    if base.ffct_stats.count == 0 or other.ffct_stats.count == 0:
        return None
    improvements: Dict[str, float] = {}
    for p in PERCENTILES:
        reference = base.ffct_sketch.percentile(p)
        if reference <= 0:
            continue
        improvements[f"p{p}"] = (reference - other.ffct_sketch.percentile(p)) / reference
    mean_base = base.ffct_stats.mean
    if mean_base and mean_base > 0 and other.ffct_stats.mean is not None:
        improvements["mean"] = (mean_base - other.ffct_stats.mean) / mean_base
    return improvements or None


def build_report(
    aggregate: CampaignAggregate,
    key: str,
    baseline_scheme: str = "baseline",
) -> Dict[str, object]:
    """The deterministic campaign summary.

    ``key`` is the campaign's config/code hash
    (:meth:`~repro.fleet.engine.FleetConfig.key`), embedded so a report
    file is traceable back to exactly one campaign.
    """
    schemes = {
        value: _scheme_summary(agg) for value, agg in sorted(aggregate.schemes.items())
    }
    report: Dict[str, object] = {
        "campaign_key": key,
        "sketch_alpha": aggregate.alpha,
        "total_sessions": aggregate.total_sessions,
        "schemes": schemes,
    }
    base = aggregate.schemes.get(baseline_scheme)
    if base is not None:
        report["ffct_improvement_over_baseline"] = {
            value: _improvements(base, agg)
            for value, agg in sorted(aggregate.schemes.items())
            if value != baseline_scheme
        }
    return report


__all__ = [
    "PERCENTILES",
    "build_report",
    "canonical_json",
    "report_hash",
]

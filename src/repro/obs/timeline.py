"""ASCII rendering of FFCT phase breakdowns.

Turns "Wira saves X ms" into "Wira saves X ms, of which Y ms from cwnd
init and Z ms from pacing init": per-scheme mean phase tables for the
Fig 11–15 replays, and a proportional timeline strip per scheme::

    Baseline |hhhh|oo|tttttttttttttttttt|ssss|  169.0ms
    Wira     |hhhh|oo|ttttttttt|                152.9ms

Phases: h=handshake, r=request, o=origin, t=transmit, s=stalls (see
:class:`repro.cdn.session.PhaseBreakdown`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cdn.session import PHASES, PhaseBreakdown
from repro.metrics.report import Table, format_ms
from repro.metrics.stats import mean

#: One glyph per phase, in chronological order.
PHASE_GLYPHS: Tuple[Tuple[str, str], ...] = (
    ("handshake", "h"),
    ("request", "r"),
    ("origin", "o"),
    ("transmit", "t"),
    ("stalls", "s"),
)


def mean_breakdown(
    breakdowns: Iterable[Optional[PhaseBreakdown]],
) -> Optional[PhaseBreakdown]:
    """Phase-wise mean over the sessions that produced a breakdown."""
    complete = [b for b in breakdowns if b is not None]
    if not complete:
        return None
    return PhaseBreakdown(
        **{name: mean([b.phase(name) for b in complete]) for name in PHASES}
    )


def phase_table(
    by_scheme: Dict[str, Optional[PhaseBreakdown]],
    title: str = "FFCT phase breakdown (mean per session)",
    baseline: Optional[str] = None,
) -> Table:
    """Per-scheme mean phase table, with per-phase savings vs a baseline.

    ``by_scheme`` maps a display name to a mean breakdown (``None`` rows
    render as dashes).  When ``baseline`` names a key with a breakdown,
    a delta row per scheme attributes the total saving to phases.
    """
    table = Table(title, ["scheme", *PHASES, "total"])
    base = by_scheme.get(baseline) if baseline is not None else None
    for scheme_name, breakdown in by_scheme.items():
        if breakdown is None:
            table.add_row(scheme_name, *(["-"] * (len(PHASES) + 1)))
            continue
        table.add_row(
            scheme_name,
            *(format_ms(breakdown.phase(name)) for name in PHASES),
            format_ms(breakdown.total),
        )
        if base is not None and scheme_name != baseline:
            deltas = [breakdown.phase(name) - base.phase(name) for name in PHASES]
            table.add_row(
                f"  vs {baseline}",
                *(f"{d * 1000:+.1f}ms" for d in deltas),
                f"{(breakdown.total - base.total) * 1000:+.1f}ms",
            )
    return table


def render_timeline(
    by_scheme: Dict[str, Optional[PhaseBreakdown]], width: int = 64
) -> str:
    """Proportional ASCII strip per scheme, common time scale."""
    complete = {k: v for k, v in by_scheme.items() if v is not None}
    if not complete:
        return "(no completed sessions)"
    scale_max = max(b.total for b in complete.values())
    if scale_max <= 0:
        return "(all breakdowns empty)"
    label_width = max(len(k) for k in by_scheme)
    lines: List[str] = []
    for scheme_name, breakdown in by_scheme.items():
        if breakdown is None:
            lines.append(f"{scheme_name.ljust(label_width)} (no breakdown)")
            continue
        strip = "".join(
            glyph * max(1 if breakdown.phase(name) > 0 else 0,
                        round(breakdown.phase(name) / scale_max * width))
            for name, glyph in PHASE_GLYPHS
        )
        lines.append(
            f"{scheme_name.ljust(label_width)} |{strip}|  {format_ms(breakdown.total)}"
        )
    legend = "  ".join(f"{glyph}={name}" for name, glyph in PHASE_GLYPHS)
    lines.append(f"{' ' * label_width} [{legend}]")
    return "\n".join(lines)


def render_quantile_strips(
    by_scheme: Dict[str, Optional[Tuple[float, ...]]],
    labels: Sequence[str] = ("p50", "p90", "p99"),
    width: int = 40,
) -> str:
    """Per-scheme quantile strips on a shared time scale.

    ``by_scheme`` maps a display name to quantile values in seconds
    (ascending, one per label; ``None`` rows render as a placeholder)::

        baseline |----5----------9---------------+|  p50 152.0ms  p99 301.2ms
        wira     |--5------9----------+           |  p50 121.4ms  p99 240.0ms

    Digits mark the p50/p90 positions (their leading digit), ``+`` the
    tail quantile — a live-dashboard sibling of :func:`render_timeline`.
    """
    complete = {k: v for k, v in by_scheme.items() if v}
    if not complete:
        return "(no completed sessions yet)"
    scale_max = max(max(v) for v in complete.values())
    if scale_max <= 0:
        return "(all quantiles zero)"
    label_width = max(len(k) for k in by_scheme)
    glyphs = [label[1] for label in labels[:-1]] + ["+"]
    lines: List[str] = []
    for scheme_name, values in by_scheme.items():
        if not values:
            lines.append(f"{scheme_name.ljust(label_width)} (no sessions yet)")
            continue
        strip = ["-"] * width
        for value, glyph in zip(values, glyphs):
            position = min(width - 1, max(0, round(value / scale_max * (width - 1))))
            strip[position] = glyph
        annotation = "  ".join(
            f"{label} {format_ms(value)}"
            for label, value in zip((labels[0], labels[-1]), (values[0], values[-1]))
        )
        lines.append(
            f"{scheme_name.ljust(label_width)} |{''.join(strip)}|  {annotation}"
        )
    legend = "  ".join(f"{glyph}={label}" for label, glyph in zip(labels, glyphs))
    lines.append(f"{' ' * label_width} [{legend}]")
    return "\n".join(lines)


def deployment_phase_table(
    records: Dict[object, Sequence[object]],
    title: str = "FFCT phase breakdown (mean per session)",
) -> Tuple[Table, str]:
    """Phase table and timeline strips straight off ``DeploymentRecords``.

    Averages ``outcome.result.phase_breakdown`` per scheme; the table
    attributes each scheme's saving to phases against the baseline when
    the records hold one.
    """
    by_scheme: Dict[str, Optional[PhaseBreakdown]] = {}
    baseline_name: Optional[str] = None
    for scheme, outcomes in records.items():
        display = getattr(scheme, "display_name", str(scheme))
        by_scheme[display] = mean_breakdown(
            outcome.result.phase_breakdown for outcome in outcomes  # type: ignore[attr-defined]
        )
        if getattr(scheme, "value", None) == "baseline":
            baseline_name = display
    table = phase_table(by_scheme, title=title, baseline=baseline_name)
    return table, render_timeline(by_scheme)

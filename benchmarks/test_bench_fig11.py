"""Fig 11 — overall FFCT benefits (paper: Wira −10.6% avg, −18.7% p70,
−16.7% p90; Wira(FF) −6.0%, Wira(Hx) −7.4% avg)."""

from repro.core.schemes import BASELINE, WIRA, WIRA_FF, WIRA_HX
from repro.experiments import fig11
from repro.experiments.fig11 import PERCENTILES
from repro.metrics.report import Table, format_ms, format_pct


def test_bench_fig11_overall_ffct(once, print_phase_table):
    result = once(fig11.run)
    print_phase_table("Fig 11")

    table = Table(
        "Fig 11 — FFCT of all live streams (paper baseline 158.9ms avg / 409.6ms p90)",
        ["scheme", "n", "avg", "avg gain", "p50", "p70", "p70 gain", "p90", "p90 gain"],
    )
    for scheme in (BASELINE, WIRA_FF, WIRA_HX, WIRA):
        s = result.by_scheme[scheme]
        table.add_row(
            scheme.display_name,
            len(s.samples),
            format_ms(s.avg),
            format_pct(result.improvement(scheme), signed=True),
            format_ms(s.p(50)),
            format_ms(s.p(70)),
            format_pct(result.improvement(scheme, 70), signed=True),
            format_ms(s.p(90)),
            format_pct(result.improvement(scheme, 90), signed=True),
        )
    table.print()

    # Shape: every Wira variant beats the baseline on average, and the
    # full mechanism is at least as good as either single-signal variant.
    assert result.improvement(WIRA) > 0.02
    assert result.improvement(WIRA_FF) > 0.0
    assert result.improvement(WIRA_HX) > 0.0
    assert result.improvement(WIRA) >= result.improvement(WIRA_FF) - 0.01
    # Tail percentiles improve too (paper: −16.7% at p90).
    assert result.improvement(WIRA, 90) > 0.0
    assert result.improvement(WIRA, 70) > 0.0

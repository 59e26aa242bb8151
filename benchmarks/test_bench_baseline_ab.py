"""§VI preamble — A/B test of init_cwnd=10 vs the experiential baseline
(paper: 201.0ms avg / 476.5ms p90 vs 158.9ms / 409.6ms)."""

from repro.core.schemes import BASELINE, STATIC_10
from repro.experiments import baseline_ab
from repro.metrics.report import Table, format_ms


def test_bench_baseline_ab(once):
    result = once(baseline_ab.run)

    table = Table(
        "Baseline A/B — static init_cwnd=10 vs experiential configuration",
        ["scheme", "avg FFCT", "p90 FFCT"],
    )
    for scheme in (STATIC_10, BASELINE):
        table.add_row(
            scheme.display_name,
            format_ms(result.avg(scheme)),
            format_ms(result.p90(scheme)),
        )
    table.print()

    # The experiential baseline clearly beats Google's static 10-packet
    # window — which is why the paper compares Wira against the former.
    assert result.avg(BASELINE) < result.avg(STATIC_10)
    assert result.p90(BASELINE) < result.p90(STATIC_10)

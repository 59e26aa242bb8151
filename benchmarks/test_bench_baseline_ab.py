"""§VI preamble — A/B test of init_cwnd=10 vs the experiential baseline
(paper: 201.0ms avg / 476.5ms p90 vs 158.9ms / 409.6ms)."""

from repro.core.schemes import BASELINE, STATIC_10
from repro.experiments import baseline_ab
from repro.metrics.report import Table, format_ms


def test_bench_baseline_ab():
    ffct = baseline_ab.run()

    table = Table(
        "Baseline A/B — static init_cwnd=10 vs experiential configuration",
        ["scheme", "avg FFCT", "p90 FFCT"],
    )
    for scheme in (STATIC_10, BASELINE):
        table.add_row(
            scheme.display_name,
            format_ms(ffct[None, scheme].avg),
            format_ms(ffct[None, scheme].p(90)),
        )
    table.print()

    # The experiential baseline clearly beats Google's static 10-packet
    # window — which is why the paper compares Wira against the former.
    assert ffct[None, BASELINE].avg < ffct[None, STATIC_10].avg
    assert ffct[None, BASELINE].p(90) < ffct[None, STATIC_10].p(90)

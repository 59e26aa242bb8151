"""Fig 3 — QoS dispersion within user groups (paper: avg CV 36.4%
MinRTT / 51.6% MaxBW; ~50% of MinRTT CVs > 20%, only 12.8% of MaxBW
CVs < 20%)."""

from repro.experiments import fig3
from repro.metrics.report import Table, format_pct


def test_bench_fig3_user_group_dispersion():
    result = fig3.run(250, 40)

    table = Table(
        "Fig 3 — within-UG coefficient of variation",
        ["metric", "paper", "measured"],
    )
    table.add_row("avg MinRTT CV", "36.4%", format_pct(result.avg_rtt_cv))
    table.add_row("avg MaxBW CV", "51.6%", format_pct(result.avg_bw_cv))
    table.add_row("P(MinRTT CV > 20%)", "~50%", format_pct(result.frac_rtt_cv_above_20pct))
    table.add_row("P(MaxBW CV < 20%)", "12.8%", format_pct(result.frac_bw_cv_below_20pct))
    table.print()

    assert 0.28 < result.avg_rtt_cv < 0.45
    assert 0.40 < result.avg_bw_cv < 0.62
    assert result.frac_rtt_cv_above_20pct > 0.5
    assert result.frac_bw_cv_below_20pct < 0.25
    # MaxBW is the more dispersed metric, as in the paper.
    assert result.avg_bw_cv > result.avg_rtt_cv

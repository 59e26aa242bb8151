"""Fig 4 — QoS stability within the same OD pair (paper: avg MinRTT CV
9.9/10.2/10.5/11.2% at (0,5]/(0,10]/(0,30]/(0,60] min; MaxBW p50 CV
>22.6%; both far more stable than UG-level estimates)."""

from repro.experiments import fig4
from repro.experiments.fig4 import INTERVALS_MINUTES
from repro.metrics.report import Table, format_pct

PAPER_RTT_CVS = {5.0: 0.099, 10.0: 0.102, 30.0: 0.105, 60.0: 0.112}


def test_bench_fig4_od_pair_stability():
    result = fig4.run(200, 16)

    table = Table(
        "Fig 4 — within-OD-pair CV vs revisit interval",
        ["interval", "paper MinRTT CV", "measured MinRTT CV", "measured MaxBW CV", "measured MaxBW p50"],
    )
    for interval in INTERVALS_MINUTES:
        d = result.by_interval[interval]
        table.add_row(
            f"(0,{interval:g}]min",
            format_pct(PAPER_RTT_CVS[interval]),
            format_pct(d.avg_rtt_cv),
            format_pct(d.avg_bw_cv),
            format_pct(d.p50_bw_cv),
        )
    table.print()

    five = result.by_interval[5.0]
    sixty = result.by_interval[60.0]
    # (i) MinRTT CV ~10%, growing slightly with the interval.
    assert 0.07 < five.avg_rtt_cv < 0.13
    assert five.avg_rtt_cv < sixty.avg_rtt_cv < five.avg_rtt_cv * 1.35
    # (ii) the bulk of OD pairs stay tightly stable.
    assert five.p80_rtt_cv < 0.18
    # (iii) MaxBW is noisier: median CV above ~20%.
    assert five.p50_bw_cv > 0.18
    # (iv) both far below the UG-level dispersion (36.4% / 51.6%).
    assert five.avg_rtt_cv < 0.364 / 2
    assert five.avg_bw_cv < 0.516 * 0.75

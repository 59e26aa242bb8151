"""Fig 13 — FFCT benefits bucketed by FF_Size / MinRTT / MaxBW /
retransmission ratio (paper: gains grow with FF_Size — 4.1% at (30,50]
to 20.2% at (80,150]; degrade above 100ms MinRTT; peak in the
(10,20]Mbps MaxBW band)."""

from repro.core.schemes import BASELINE, WIRA, WIRA_FF, WIRA_HX
from repro.experiments import fig13
from repro.metrics.report import Table, format_ms, format_pct


def _print_dimension(bucketed, title):
    table = Table(title, ["bucket", "n(base)", "Baseline", "Wira(FF)", "Wira(Hx)", "Wira", "Wira gain"])
    for bucket in bucketed.buckets():
        row = [bucket, len(bucketed.table[bucket][BASELINE])]
        for scheme in (BASELINE, WIRA_FF, WIRA_HX, WIRA):
            row.append(format_ms(bucketed.mean_ffct(bucket, scheme)))
        row.append(format_pct(bucketed.improvement(bucket, WIRA), signed=True))
        table.add_row(*row)
    table.print()


def test_bench_fig13_conditional_benefits(once, print_phase_table):
    result = once(fig13.run)
    print_phase_table("Fig 13")

    _print_dimension(result.by_ff, "Fig 13(a) — by FF_Size (KB); paper: gains grow with FF")
    _print_dimension(result.by_rtt, "Fig 13(b) — by MinRTT (ms); paper: degrade beyond 100ms")
    _print_dimension(result.by_bw, "Fig 13(c) — by MaxBW (Mbps); paper: peak at (10,20]")
    _print_dimension(result.by_retx, "Fig 13(d) — by retransmission ratio (%)")

    # (a) The largest first frames benefit more than mid-sized ones
    # (paper: 4.1% at (30,50] rising to 20.2% at (80,150]).
    mid = result.by_ff.improvement("(30,50]", WIRA)
    large = result.by_ff.improvement("(80,150]", WIRA)
    if mid is not None and large is not None:
        assert large > mid - 0.02
    # (b) Gains exist below 100ms RTT.
    mid_rtt = result.by_rtt.improvement("(30,60]", WIRA)
    assert mid_rtt is not None and mid_rtt > 0.0
    # (c) The mid-bandwidth band gains (baseline's fixed pacing is most
    # wrong when the path is much faster than its assumption).
    mid_bw = result.by_bw.improvement("(10,20]", WIRA)
    assert mid_bw is not None and mid_bw > 0.0

"""Fig 2 — FFCT vs init_cwnd and init_pacing on the testbed
(8 Mbps / 3% loss / 50 ms RTT / 25 KB buffer, 66 KB first frame)."""

from repro.experiments import fig2
from repro.metrics.report import Table, format_ms, format_pct


def test_bench_fig2_window_and_rate_sweeps():
    result = fig2.run(20)

    table_a = Table(
        "Fig 2(a) — FFCT vs init_cwnd (packets); paper: 45 best, 4/10 slow, 80/100 lossy",
        ["init_cwnd", "FFCT", "first-frame loss"],
    )
    for point in result.cwnd_sweep:
        table_a.add_row(int(point.parameter), format_ms(point.ffct), format_pct(point.loss_rate))
    table_a.print()

    table_b = Table(
        "Fig 2(b) — FFCT vs init_pacing (Mbps); paper: 8Mbps (=MaxBW) best, 0.8 slow, 16/40 lossy",
        ["init_pacing", "FFCT", "first-frame loss"],
    )
    for point in result.pacing_sweep:
        table_b.add_row(point.parameter, format_ms(point.ffct), format_pct(point.loss_rate))
    table_b.print()

    by_cwnd = {int(p.parameter): p for p in result.cwnd_sweep}
    # Matching the window to FF_Size (45 packets ~= 66KB) beats both
    # extremes; small windows pay RTTs, large ones pay losses.
    assert by_cwnd[45].ffct < by_cwnd[4].ffct
    assert by_cwnd[45].ffct < by_cwnd[10].ffct
    assert by_cwnd[45].ffct <= min(by_cwnd[80].ffct, by_cwnd[100].ffct) * 1.10
    assert by_cwnd[100].loss_rate > by_cwnd[45].loss_rate

    by_pacing = {p.parameter: p for p in result.pacing_sweep}
    # Pacing at the bottleneck rate wins; undershoot dribbles, heavy
    # overshoot loses packets.
    assert by_pacing[8.0].ffct < by_pacing[0.8].ffct
    assert by_pacing[8.0].ffct < by_pacing[40.0].ffct
    assert by_pacing[40.0].loss_rate > by_pacing[8.0].loss_rate
    # Dribble is the worst configuration (paper: 302ms vs 157ms ~ 1.9x;
    # BBR's model takes over after the first RTT, bounding the damage).
    assert by_pacing[0.8].ffct > 1.5 * by_pacing[8.0].ffct

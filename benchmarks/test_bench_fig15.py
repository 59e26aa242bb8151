"""Fig 15 — follow-up frame transmissions (paper: stable 10.9-13.0%
completion-time gains through frames 2-4; follow-up loss rate improves
from 9.0-9.2% to 6.7-7.1% — no congestion side effects)."""

from repro.core.schemes import BASELINE, WIRA
from repro.experiments import fig15
from repro.experiments.fig15 import FRAMES
from repro.metrics.report import Table, format_ms, format_pct


def test_bench_fig15_follow_up_frames(once, print_phase_table):
    result = once(fig15.run)
    print_phase_table("Fig 15")

    table = Table(
        "Fig 15 — completion time of video frames 1-4 (since request)",
        ["frame", "Baseline", "Wira", "gain", "Baseline loss", "Wira loss"],
    )
    for k in FRAMES:
        table.add_row(
            f"#{k}",
            format_ms(result.mean_completion(BASELINE, k)),
            format_ms(result.mean_completion(WIRA, k)),
            format_pct(result.improvement(WIRA, k), signed=True),
            format_pct(result.mean_loss(BASELINE, k)),
            format_pct(result.mean_loss(WIRA, k)),
        )
    table.print()

    # Completion times are monotone in frame index for both schemes.
    for scheme in (BASELINE, WIRA):
        times = [result.mean_completion(scheme, k) for k in FRAMES]
        assert all(t is not None for t in times)
        assert times == sorted(times)

    # Wira's first-frame gain does not degrade follow-up frames: every
    # frame 2-4 is at least as fast as baseline's, within noise.
    for k in (2, 3, 4):
        gain = result.improvement(WIRA, k)
        assert gain is not None and gain > -0.03

    # And follow-up loss does not get worse (paper: it improves).
    for k in (2, 3, 4):
        base_loss = result.mean_loss(BASELINE, k)
        wira_loss = result.mean_loss(WIRA, k)
        assert wira_loss <= base_loss + 0.01

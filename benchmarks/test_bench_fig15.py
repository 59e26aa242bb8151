"""Fig 15 — follow-up frame transmissions (paper: stable 10.9-13.0%
completion-time gains through frames 2-4; follow-up loss rate improves
from 9.0-9.2% to 6.7-7.1% — no congestion side effects)."""

from repro.core.schemes import BASELINE, WIRA
from repro.experiments import fig15
from repro.experiments.common import gain
from repro.experiments.fig15 import FRAMES
from repro.metrics.report import Table, format_ms, format_pct


def test_bench_fig15_follow_up_frames(print_phase_table):
    completion, loss = fig15.run()
    print_phase_table("Fig 15")

    table = Table(
        "Fig 15 — completion time of video frames 1-4 (since request)",
        ["frame", "Baseline", "Wira", "gain", "Baseline loss", "Wira loss"],
    )
    for k in FRAMES:
        table.add_row(
            f"#{k}",
            format_ms(completion[k][None, BASELINE].avg),
            format_ms(completion[k][None, WIRA].avg),
            format_pct(gain(completion[k], WIRA), signed=True),
            format_pct(loss[k][None, BASELINE].avg),
            format_pct(loss[k][None, WIRA].avg),
        )
    table.print()

    # Completion times are monotone in frame index for both schemes.
    for scheme in (BASELINE, WIRA):
        times = [completion[k][None, scheme].avg for k in FRAMES]
        assert all(t is not None for t in times)
        assert times == sorted(times)

    # Wira's first-frame gain does not degrade follow-up frames: every
    # frame 2-4 is at least as fast as baseline's, within noise.
    for k in (2, 3, 4):
        frame_gain = gain(completion[k], WIRA)
        assert frame_gain is not None and frame_gain > -0.03

    # And follow-up loss does not get worse (paper: it improves).
    for k in (2, 3, 4):
        base_loss = loss[k][None, BASELINE].avg
        wira_loss = loss[k][None, WIRA].avg
        assert wira_loss <= base_loss + 0.01

"""Fig 14 — first-frame loss rate (paper: avg 8.8% → 6.4%, a −27.3%
optimisation; p90 25.3% → 16.6%, −34.4%)."""

from repro.core.schemes import BASELINE, WIRA, WIRA_FF, WIRA_HX
from repro.experiments import fig14
from repro.metrics.report import Table, format_pct
from repro.quic.connection import HandshakeMode


def test_bench_fig14_first_frame_loss_rate(once, print_phase_table):
    result = once(fig14.run)
    print_phase_table("Fig 14")

    table = Table(
        "Fig 14 — FFLR (paper: baseline 8.8% avg / 25.3% p90; Wira 6.4% / 16.6%)",
        ["scheme", "avg FFLR", "p90 FFLR", "avg gain", "p90 gain"],
    )
    for scheme in (BASELINE, WIRA_FF, WIRA_HX, WIRA):
        s = result.overall[scheme]
        table.add_row(
            scheme.display_name,
            format_pct(s.avg),
            format_pct(s.p(90)),
            format_pct(result.improvement(scheme), signed=True),
            format_pct(result.improvement(scheme, 90), signed=True),
        )
    table.print()

    mode_table = Table(
        "Fig 14 (cont.) — Wira's FFLR optimisation by handshake mode "
        "(paper: 0-RTT -27.6% avg, 1-RTT -21.4% avg)",
        ["mode", "baseline avg", "Wira avg", "gain"],
    )
    for mode in HandshakeMode:
        base = result.by_mode[(mode, BASELINE)]
        ours = result.by_mode[(mode, WIRA)]
        mode_table.add_row(
            mode.value,
            format_pct(base.avg),
            format_pct(ours.avg),
            format_pct(result.improvement(WIRA, mode=mode), signed=True),
        )
    mode_table.print()

    # Shape: Wira reduces average first-frame loss (paper −27.3%; the
    # reproduction's random-loss floor is scheme-independent, so the
    # congestion-loss component it can save is smaller) and the tail
    # does not get worse.  The cookie-informed variants lose less than
    # the FF-only variant, whose bursts overshoot on shallow buffers.
    assert result.improvement(WIRA) > 0.02
    assert result.improvement(WIRA, 90) > -0.05
    assert result.overall[WIRA_HX].avg <= result.overall[BASELINE].avg
    assert result.overall[WIRA].avg < result.overall[WIRA_FF].avg

#!/usr/bin/env python3
"""Quickstart: one live-streaming session per scheme on the paper's testbed.

Runs a client joining a live stream through the Wira proxy over a
simulated 8 Mbps / 50 ms / 3 %-loss path (§II footnote 2) and prints the
first-frame completion time under each initialisation scheme of Table I.

Usage::

    python examples/quickstart.py
"""

from repro.cdn.origin import Origin
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.schemes import BASELINE, WIRA, WIRA_FF, WIRA_HX
from repro.core.transport_cookie import ClientCookieStore
from repro.media.source import StreamProfile
from repro.metrics.report import Table, format_ms, format_pct
from repro.simnet.path import NetworkConditions


def main() -> None:
    conditions = NetworkConditions(
        bandwidth_bps=8_000_000.0,  # 8 Mbps bottleneck
        rtt=0.050,  # 50 ms round trip
        loss_rate=0.03,  # 3 % random loss
        buffer_bytes=25_000,  # 25 kB drop-tail buffer
    )

    origin = Origin()
    origin.add_stream(
        "demo",
        StreamProfile(
            first_frame_target_bytes=66_000,
            complexity_sigma=0.03,  # keep the FF close to 66 kB for the demo
            size_jitter=0.03,
            seed=7,
        ),
    )

    table = Table(
        "Quickstart — FFCT on the paper's testbed (66 kB first frame)",
        ["scheme", "FFCT", "vs baseline", "first-frame loss", "init cwnd", "init pacing"],
    )
    baseline_ffct = None
    for scheme in (BASELINE, WIRA_FF, WIRA_HX, WIRA):
        # Each scheme gets a two-session OD pair: the first session
        # charges the client's transport-cookie store, the second is
        # measured (that is when Hx_QoS is available).
        store = ClientCookieStore()
        warmup_spec = SessionSpec(conditions, scheme, seed=1, target_video_frames=20)
        StreamingSession(warmup_spec, origin, "demo", cookie_store=store).run()
        measured_spec = SessionSpec(conditions, scheme, seed=2, epoch=300.0)
        result = StreamingSession(
            measured_spec, origin, "demo", cookie_store=store
        ).run()

        if baseline_ffct is None:
            baseline_ffct = result.ffct
        gain = (baseline_ffct - result.ffct) / baseline_ffct
        params = result.initial_params
        table.add_row(
            scheme.display_name,
            format_ms(result.ffct),
            format_pct(gain, signed=True),
            format_pct(result.fflr),
            f"{params.cwnd_bytes / 1000:.1f}kB",
            f"{params.pacing_bps / 1e6:.2f}Mbps",
        )
    table.print()
    print(
        "\nWira initialises the window from the parsed first-frame size and"
        "\nthe pacing rate from the previous session's cookie — both signals"
        "\nare visible in the last two columns."
    )


if __name__ == "__main__":
    main()

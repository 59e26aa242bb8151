"""Ablations beyond the paper's evaluation (DESIGN.md extensions).

* **Θ_VF sweep** — the playback-condition knob of §VII: how FFCT and the
  effective first-frame size move as players demand more video frames
  before first paint.
* **Staleness Δ sweep** — corner case 2's threshold: how much cookie
  history helps as it ages.
* **Congestion-controller substrate** — the paper deploys on BBRv1; the
  initialisation hooks are controller-agnostic, so we compare the same
  schemes on CUBIC.
"""

from repro.cdn.origin import Origin
from repro.cdn.playback import PlaybackPolicy
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.config import WiraConfig
from repro.core.schemes import BASELINE, WIRA
from repro.core.transport_cookie import ClientCookieStore
from repro.media.source import StreamProfile
from repro.metrics.report import Table, format_ms, format_pct
from repro.metrics.stats import mean
from repro.quic.config import QuicConfig
from repro.simnet.path import NetworkConditions

TESTBED = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, loss_rate=0.01, buffer_bytes=100_000)


def make_origin(seed=3):
    origin = Origin()
    origin.add_stream(
        "s",
        StreamProfile(first_frame_target_bytes=60_000, complexity_sigma=0.05,
                      size_jitter=0.05, seed=seed),
    )
    return origin


def run_pair(scheme, *, playback=None, epoch_gap=300.0, quic_config=None,
             wira_config=None, seed=0, conditions=TESTBED):
    """Warm-up session then a measured session with the cookie."""
    origin = make_origin()
    store = ClientCookieStore()
    warmup_spec = SessionSpec(
        conditions, scheme, seed=seed * 2 + 1, target_video_frames=20,
        quic_config=quic_config, wira_config=wira_config,
    )
    StreamingSession(warmup_spec, origin, "s", cookie_store=store).run()
    measured_spec = warmup_spec.with_(
        seed=seed * 2 + 2, epoch=epoch_gap,
        playback=playback or PlaybackPolicy(), target_video_frames=4,
    )
    return StreamingSession(measured_spec, origin, "s", cookie_store=store).run()


def test_bench_ablation_theta_vf(once):
    """Θ_VF sweep: richer playback conditions raise FF_Size and FFCT."""

    def sweep():
        rows = []
        for theta in (1, 2, 3, 5):
            results = [
                run_pair(WIRA, playback=PlaybackPolicy(video_frames_required=theta), seed=s)
                for s in range(8)
            ]
            rows.append(
                (
                    theta,
                    mean([r.ffct for r in results if r.ffct]),
                    mean([r.ff_size_parsed for r in results if r.ff_size_parsed]),
                )
            )
        return rows

    rows = once(sweep)
    table = Table(
        "Ablation — playback condition Θ_VF (§VII)",
        ["Θ_VF", "FFCT", "parsed FF_Size"],
    )
    for theta, ffct, ff in rows:
        table.add_row(theta, format_ms(ffct), f"{ff / 1000:.1f}KB")
    table.print()

    ffcts = [ffct for _, ffct, _ in rows]
    sizes = [ff for _, _, ff in rows]
    assert ffcts == sorted(ffcts)  # more frames -> later first paint
    assert sizes == sorted(sizes)  # and a larger parsed first frame
    assert sizes[-1] > sizes[0] * 1.1  # the Θ_VF knob really reaches FP


def test_bench_ablation_cookie_staleness(once):
    """Δ sweep: fresh cookies help; stale ones fall back safely."""

    def sweep():
        rows = []
        for gap_minutes in (5, 30, 59, 120):
            results = [
                run_pair(WIRA, epoch_gap=gap_minutes * 60.0, seed=s)
                for s in range(8)
            ]
            used = mean([1.0 if r.used_cookie else 0.0 for r in results])
            rows.append((gap_minutes, mean([r.ffct for r in results if r.ffct]), used))
        return rows

    rows = once(sweep)
    table = Table(
        "Ablation — cookie age vs Δ=60min (corner case 2)",
        ["gap", "FFCT", "cookie accepted"],
    )
    for gap, ffct, used in rows:
        table.add_row(f"{gap}min", format_ms(ffct), format_pct(used))
    table.print()

    by_gap = {gap: (ffct, used) for gap, ffct, used in rows}
    assert by_gap[5][1] == 1.0  # fresh cookies always accepted
    assert by_gap[120][1] == 0.0  # beyond Δ always rejected
    # Sessions still complete fine without the cookie (fallback works).
    assert by_gap[120][0] < 3 * by_gap[5][0]


def test_bench_ablation_congestion_controller(once):
    """The Wira hooks compose with a loss-based controller too."""

    def sweep():
        rows = []
        for cc in ("bbr", "cubic"):
            quic_config = QuicConfig(congestion_controller=cc)
            base = [
                run_pair(BASELINE, quic_config=quic_config, seed=s).ffct
                for s in range(8)
            ]
            wira = [
                run_pair(WIRA, quic_config=quic_config, seed=s).ffct
                for s in range(8)
            ]
            rows.append((cc, mean([b for b in base if b]), mean([w for w in wira if w])))
        return rows

    rows = once(sweep)
    table = Table(
        "Ablation — congestion-controller substrate",
        ["controller", "Baseline FFCT", "Wira FFCT", "gain"],
    )
    for cc, base, wira in rows:
        table.add_row(cc, format_ms(base), format_ms(wira), format_pct((base - wira) / base, signed=True))
    table.print()

    for cc, base, wira in rows:
        # Initialisation helps (or at least never badly hurts) under
        # either controller; the hooks are substrate-agnostic.
        assert wira < base * 1.10, cc

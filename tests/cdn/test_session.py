"""End-to-end streaming session tests — the heart of the reproduction."""

import pytest

from repro.cdn.origin import Origin
from repro.cdn.playback import PlaybackPolicy
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.config import WiraConfig
from repro.core.initializer import payload_to_wire_bytes
from repro.core.schemes import BASELINE, STATIC_10, WIRA, WIRA_FF, WIRA_HX
from repro.core.transport_cookie import ClientCookieStore
from repro.media.source import StreamProfile
from repro.quic.connection import HandshakeMode
from repro.simnet.path import NetworkConditions
from repro.simnet.schedule import OutageWindow, PathSchedule


TESTBED = NetworkConditions(  # §II footnote 2
    bandwidth_bps=8_000_000.0, rtt=0.050, loss_rate=0.0, buffer_bytes=25_000
)


def make_origin(ff_target=66_000, seed=1, **origin_kwargs):
    origin = Origin(**origin_kwargs)
    origin.add_stream(
        "demo",
        StreamProfile(first_frame_target_bytes=ff_target, seed=seed,
                      complexity_sigma=0.02, size_jitter=0.02),
    )
    return origin


def run_session(scheme=WIRA, conditions=TESTBED, store=None, mode=HandshakeMode.ZERO_RTT,
                seed=3, origin=None, **kwargs):
    spec = SessionSpec(
        conditions=conditions,
        scheme=scheme,
        handshake_mode=mode,
        seed=seed,
        **kwargs,
    )
    session = StreamingSession(
        spec, origin or make_origin(), "demo", cookie_store=store
    )
    return session.run()


def warmed_store(conditions=TESTBED, seed=3, origin=None):
    """Run one session to charge the client's cookie store."""
    store = ClientCookieStore()
    result = run_session(BASELINE, conditions, store, seed=seed, origin=origin)
    assert result.cookie_delivered
    return store


class TestBasicSession:
    def test_session_completes_with_ffct(self):
        result = run_session()
        assert result.completed
        assert result.ffct is not None
        assert 0.05 < result.ffct < 2.0

    def test_ff_size_parsed_close_to_target(self):
        result = run_session()
        assert result.ff_size_parsed == pytest.approx(66_000, rel=0.15)

    def test_four_frame_times_recorded(self):
        result = run_session(target_video_frames=4)
        times = [result.frame_time(k) for k in range(1, 5)]
        assert all(t is not None for t in times)
        assert times == sorted(times)

    def test_deterministic(self):
        a = run_session(seed=9)
        b = run_session(seed=9)
        assert a.ffct == b.ffct
        assert a.final_server_stats.packets_sent == b.final_server_stats.packets_sent

    def test_different_seeds_on_lossy_paths_differ(self):
        lossy = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, loss_rate=0.05, buffer_bytes=25_000)
        results = {run_session(conditions=lossy, seed=s).ffct for s in range(6)}
        assert len(results) > 1


class TestCookieLifecycle:
    def test_first_session_has_no_cookie(self):
        store = ClientCookieStore()
        result = run_session(WIRA, store=store)
        assert not result.used_cookie

    def test_cookie_delivered_at_session_end(self):
        store = ClientCookieStore()
        result = run_session(WIRA, store=store)
        assert result.cookie_delivered
        assert store.get("origin") is not None

    def test_second_session_uses_cookie(self):
        store = warmed_store()
        result = run_session(WIRA, store=store)
        assert result.used_cookie
        assert result.initial_params.used_hx_qos

    def test_cookie_reflects_measured_path(self):
        store = warmed_store()
        result = run_session(WIRA, store=store)
        # BDP at 8Mbps/50ms is 50kB; FF is 66kB; Wira picks min = BDP-ish.
        assert result.initial_params.cwnd_bytes < 66_000
        assert result.initial_params.pacing_bps == pytest.approx(8e6, rel=0.5)

    def test_stale_cookie_triggers_corner_case_2(self):
        store = warmed_store()
        result = run_session(
            WIRA,
            store=store,
            epoch=7200.0,  # two hours later: cookie exceeds Δ=60min
        )
        assert not result.used_cookie
        assert result.initial_params.used_ff_size
        assert not result.initial_params.used_hx_qos

    def test_client_without_cookie_support(self):
        result = run_session(WIRA, client_supports_cookies=False)
        assert not result.used_cookie
        assert not result.cookie_delivered


class TestSchemes:
    def test_baseline_uses_experiential_values(self):
        config = WiraConfig(init_cwnd_exp=44_000, init_rtt_exp=0.08)
        result = run_session(BASELINE, wira_config=config)
        assert result.initial_params.cwnd_bytes == payload_to_wire_bytes(44_000)

    def test_wira_ff_uses_parsed_size(self):
        result = run_session(WIRA_FF)
        assert result.initial_params.cwnd_bytes == payload_to_wire_bytes(
            result.ff_size_parsed
        )

    def test_all_schemes_complete(self):
        for scheme in (BASELINE, WIRA_FF, WIRA_HX, WIRA, STATIC_10):
            result = run_session(scheme)
            assert result.completed, scheme

    def test_wira_min_rule_with_cookie(self):
        store = warmed_store()
        result = run_session(WIRA, store=store)
        ff = result.ff_size_parsed
        assert result.initial_params.cwnd_bytes <= ff


class TestHandshakeModes:
    def test_one_rtt_slower_first_frame(self):
        ffct_0 = run_session(mode=HandshakeMode.ZERO_RTT).ffct
        ffct_1 = run_session(mode=HandshakeMode.ONE_RTT).ffct
        assert ffct_1 > ffct_0 + 0.03

    def test_one_rtt_measures_rtt_for_init(self):
        store = warmed_store()
        result = run_session(WIRA, store=store, mode=HandshakeMode.ONE_RTT)
        # The window is the BDP from the cookie MaxBW and the *measured*
        # ~50ms handshake RTT.  The warm-up MaxBW estimate is somewhat
        # conservative under the testbed's tight 25kB buffer, so accept
        # a band below the true 50kB BDP — but well under the 66kB FF.
        assert result.initial_params.used_hx_qos
        assert 25_000 < result.initial_params.cwnd_bytes < 56_000


class TestCornerCase1:
    def test_delayed_i_frame_yields_provisional_then_final_init(self):
        origin = make_origin(i_frame_pull_delay=0.03)
        result = run_session(WIRA_FF, origin=origin)
        assert result.completed
        # The server re-initialised once the parser completed.
        assert result.initial_params is not None
        assert not result.initial_params.provisional
        assert result.initial_params.cwnd_bytes == payload_to_wire_bytes(
            result.ff_size_parsed
        )


class TestLossAccounting:
    def test_fflr_zero_on_clean_deep_buffered_path(self):
        deep = NetworkConditions(
            bandwidth_bps=8e6, rtt=0.05, loss_rate=0.0, buffer_bytes=150_000
        )
        result = run_session(conditions=deep)
        assert result.fflr == 0.0

    def test_fflr_positive_on_lossy_path(self):
        lossy = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, loss_rate=0.08, buffer_bytes=25_000)
        results = [run_session(conditions=lossy, seed=s) for s in range(5)]
        assert any(r.fflr and r.fflr > 0 for r in results)

    def test_frame_loss_rates_available(self):
        result = run_session(target_video_frames=4)
        rates = [result.frame_loss_rate(k) for k in range(1, 5)]
        assert all(r is not None for r in rates)


class TestPlaybackPolicies:
    def test_theta_three_increases_ffct(self):
        base = run_session()
        theta3 = run_session(playback=PlaybackPolicy(video_frames_required=3))
        assert theta3.ffct > base.ffct

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PlaybackPolicy(video_frames_required=0)


#: 2 Mbps, 50 ms, a 25 kB buffer: the path BBR's pinned session runs on.
NARROW = NetworkConditions(bandwidth_bps=2_000_000.0, rtt=0.050, loss_rate=0.0, buffer_bytes=25_000)

STALLS = pytest.mark.xfail(strict=True, reason="ROADMAP item 9(a)")


@pytest.mark.parametrize(
    "start, duration",
    [
        pytest.param(0.3, 0.15, marks=STALLS),
        pytest.param(0.25, 0.2, marks=STALLS),
        (0.3, 0.1),
        (1.0, 0.2),
    ],
)
def test_session_resumes_after_an_early_outage(start, duration):
    """A 20-frame baseline session completes once the link is back.
    After a 150 ms outage at 0.3 s (or 200 ms at 0.25 s) it does not:
    PTOs keep firing with no packet sent after any of them, and it ends
    at the timeout with 7 of 20 frames.  A shorter or later outage
    completes."""
    origin = Origin()
    origin.add_stream("demo", StreamProfile(seed=1))
    schedule = PathSchedule(outages=(OutageWindow(start, duration),))
    spec = SessionSpec(
        conditions=NARROW, scheme=BASELINE, seed=3, target_video_frames=20, schedule=schedule
    )
    assert StreamingSession(spec, origin, "demo").run().completed

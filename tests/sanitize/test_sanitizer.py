"""Tests for the runtime transport sanitizer.

Two layers:

* **violation tests** — deliberately break the invariant through the
  real transport objects and assert :class:`SanitizerError` carries the
  right invariant name;
* **activation tests** — prove the hook is genuinely live during a
  sanitized end-to-end session (via ``checks_run`` counters), checks
  exactly as often as recorded, and is genuinely free when disabled.
"""

import pytest

from repro import sanitize
from repro.cdn.origin import Origin
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.schemes import BASELINE, WIRA
from repro.media.source import StreamProfile
from repro.quic.cc import make_controller
from repro.quic.cc.bbr import BbrMode, BbrSender
from repro.quic.rtt import RttEstimator
from repro.sanitize import SanitizerError, TransportSanitizer
from repro.simnet.path import NetworkConditions


@pytest.fixture(autouse=True)
def _sanitizer_off_between_tests():
    """Each test starts from the disabled baseline, whatever WIRA_SANITIZE says."""
    previous = sanitize.ACTIVE
    sanitize.disable()
    yield
    sanitize.ACTIVE = previous


def make_bbr():
    controller = make_controller("bbr", rtt=RttEstimator(initial_rtt=0.1))
    assert isinstance(controller, BbrSender)
    return controller


def expect_violation(invariant):
    return pytest.raises(SanitizerError, match=rf"\[{invariant}\]")


# ---------------------------------------------------------------------------
# bbr_transition


class TestBbrTransition:
    def test_skipping_drain_rejected(self):
        bbr = make_bbr()
        assert bbr.mode == BbrMode.STARTUP
        with sanitize.sanitized():
            with expect_violation("bbr_transition"):
                bbr._set_mode(BbrMode.PROBE_BW, now=0.0)

    def test_probe_rtt_from_startup_rejected(self):
        bbr = make_bbr()
        with sanitize.sanitized():
            with expect_violation("bbr_transition"):
                bbr._set_mode(BbrMode.PROBE_RTT, now=0.0)

    def test_legal_walk_clean(self):
        bbr = make_bbr()
        with sanitize.sanitized() as san:
            bbr._set_mode(BbrMode.DRAIN, now=0.0)
            bbr._set_mode(BbrMode.PROBE_BW, now=0.1)
            bbr._set_mode(BbrMode.PROBE_RTT, now=10.1)
            bbr._set_mode(BbrMode.PROBE_BW, now=10.3)
        assert bbr.mode == BbrMode.PROBE_BW
        assert san.checks_run["bbr_transition"] == 4

    def test_self_transition_tolerated(self):
        san = TransportSanitizer()
        san.check_bbr_transition(BbrMode.STARTUP, BbrMode.STARTUP, now=0.0)
        assert san.checks_run["bbr_transition"] == 1

    def test_natural_startup_exit_under_sanitizer(self):
        # Feed a steady full pipe so BBR organically walks
        # STARTUP -> DRAIN -> PROBE_BW through the production _set_mode
        # funnel, with the sanitizer watching every edge.
        from tests.quic.test_bbr import drive

        bbr = BbrSender(rtt=RttEstimator(initial_rtt=0.05), mss=1252)
        with sanitize.sanitized() as san:
            drive(bbr, rounds=12)
        assert bbr.mode == BbrMode.PROBE_BW
        assert san.checks_run["bbr_transition"] >= 2


# ---------------------------------------------------------------------------
# Activation semantics


class TestActivation:
    def test_disabled_by_default_and_zero_cost_hooks(self):
        assert not sanitize.enabled()
        # The same deliberate violation passes silently when disabled:
        # production tolerance is unchanged, the sanitizer only *adds*.
        bbr = make_bbr()
        bbr._set_mode(BbrMode.PROBE_BW, now=0.0)
        assert bbr.mode == BbrMode.PROBE_BW

    def test_enable_disable_roundtrip(self):
        san = sanitize.enable()
        assert sanitize.enabled() and sanitize.ACTIVE is san
        sanitize.disable()
        assert not sanitize.enabled() and sanitize.ACTIVE is None

    def test_sanitized_restores_previous(self):
        outer = sanitize.enable()
        with sanitize.sanitized() as inner:
            assert sanitize.ACTIVE is inner and inner is not outer
        assert sanitize.ACTIVE is outer

    def test_suppressed_scope_restores_previous(self):
        with sanitize.sanitized() as installed:
            with sanitize.suppressed():
                assert not sanitize.enabled()
                make_bbr()._set_mode(BbrMode.PROBE_BW, now=0.0)
            assert sanitize.ACTIVE is installed

    def test_env_requested(self, monkeypatch):
        for value, expected in (
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("", False), ("off", False),
        ):
            monkeypatch.setenv("WIRA_SANITIZE", value)
            assert sanitize.env_requested() is expected
        monkeypatch.delenv("WIRA_SANITIZE")
        assert sanitize.env_requested() is False

    def test_error_is_an_assertion(self):
        # Assertion-based harnesses (pytest.raises(AssertionError), CI
        # wrappers) must catch sanitizer findings without special-casing.
        assert issubclass(SanitizerError, AssertionError)
        for invariant in sanitize.INVARIANTS:
            err = SanitizerError(invariant, "detail", sim_time=1.5)
            assert err.invariant == invariant
            assert f"[{invariant}]" in str(err)

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError):
            SanitizerError("definitely_not_an_invariant", "detail")


# ---------------------------------------------------------------------------
# End-to-end: a sanitized session runs clean, and checks as often as pinned.


def run_session(scheme, bandwidth_bps=8_000_000.0):
    origin = Origin()
    origin.add_stream(
        "demo",
        StreamProfile(first_frame_target_bytes=66_000, seed=1,
                      complexity_sigma=0.02, size_jitter=0.02),
    )
    spec = SessionSpec(
        conditions=NetworkConditions(
            bandwidth_bps=bandwidth_bps, rtt=0.050, loss_rate=0.0, buffer_bytes=25_000
        ),
        scheme=scheme,
        seed=3,
        target_video_frames=20,
    )
    return StreamingSession(spec, origin, "demo").run()


#: A 20-frame baseline session on a 2 Mbps path: BBR fills the pipe,
#: leaves STARTUP and walks STARTUP -> DRAIN -> PROBE_BW.
PINNED_SCHEME = BASELINE
PINNED_BANDWIDTH = 2_000_000.0

#: ``checks_run`` of the pinned session: one check per BBR mode change.
#: A new check anywhere on the session's path adds a key, and a second
#: check per mode change doubles the count.
PINNED_CHECKS_RUN = {"bbr_transition": 2}


class TestSanitizedSession:
    def test_pinned_session_runs_each_check_a_recorded_number_of_times(self):
        with sanitize.sanitized() as san:
            result = run_session(PINNED_SCHEME, PINNED_BANDWIDTH)
        assert result.completed and result.ffct is not None
        assert san.checks_run == PINNED_CHECKS_RUN

    def test_baseline_session_clean(self):
        with sanitize.sanitized():
            result = run_session(BASELINE)
        assert result.completed

    def test_sanitized_run_matches_unsanitized_metrics(self):
        plain = run_session(WIRA)
        with sanitize.sanitized():
            checked = run_session(WIRA)
        # The sanitizer observes; it must never perturb the simulation.
        assert checked.ffct == plain.ffct
        assert checked.final_server_stats.packets_sent == plain.final_server_stats.packets_sent

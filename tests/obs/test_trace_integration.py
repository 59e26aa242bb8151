"""End-to-end tracing: a real testbed session under an active bus.

These tests exercise every hook family at once (transport, recovery,
pacer, wira, session) and pin the profiler's defining identity — the
phase breakdown sums back to the session's measured FFCT exactly.
"""

import pytest

from repro import obs, sanitize
from repro.experiments import common
from repro.obs.timeline import (
    deployment_phase_table,
    mean_breakdown,
    phase_table,
    render_timeline,
)
from repro.sanitize.errors import SanitizerError


def traced_session(tmp_path=None):
    with obs.tracing(trace_dir=tmp_path) as bus:
        result = common.run_testbed_session(common.manual_params(66_000, 8_000_000.0))
    return result, bus


class TestTracedSession:
    def test_session_completes_with_all_hook_families(self):
        result, bus = traced_session()
        assert result.completed
        for name in (
            "transport:packet_sent",
            "transport:packet_received",
            "transport:packet_acked",
            "transport:handshake_complete",
            "recovery:metrics_updated",
            "wira:request_received",
            "wira:parse_begin",
            "wira:parse_complete",
            "wira:init_cwnd",
            "wira:init_pacing",
            "session:request_sent",
            "session:first_frame",
            "session:done",
        ):
            assert bus.counts.get(name, 0) >= 1, f"no {name} events"

    def test_breakdown_sums_exactly_to_ffct(self):
        result, _bus = traced_session()
        breakdown = result.phase_breakdown
        assert breakdown is not None
        assert breakdown.total == pytest.approx(result.ffct, abs=1e-12)

    def test_untraced_session_has_no_breakdown(self):
        obs.disable()
        result = common.run_testbed_session(common.manual_params(66_000, 8_000_000.0))
        assert result.completed and result.phase_breakdown is None

    def test_jsonl_files_written_and_valid(self, tmp_path):
        _result, _bus = traced_session(tmp_path)
        files = sorted(tmp_path.glob("*.jsonl"))
        assert len(files) == 2  # client and server connections
        for path in files:
            assert path.name.startswith("baseline-seed0--")
            assert obs.validate_trace_lines(path.read_text().splitlines()) == []

    def test_tracing_does_not_change_results(self):
        obs.disable()
        plain = common.run_testbed_session(common.manual_params(66_000, 8_000_000.0))
        traced, _bus = traced_session()
        assert traced.ffct == plain.ffct
        for k in (1, 2, 3, 4):
            assert traced.frame_time(k) == plain.frame_time(k)


class TestSanitizerTail:
    def test_error_captures_ring_tail_when_tracing(self):
        with obs.tracing() as bus:
            bus.emit(0.5, "transport:packet_sent", "ab", {"pn": 1})
            error = SanitizerError("pacer_tokens", "tokens went negative")
        assert error.trace_tail == [(0.5, "transport:packet_sent", "ab", {"pn": 1})]

    def test_error_without_tracing_has_empty_tail(self):
        obs.disable()
        error = SanitizerError("pacer_tokens", "tokens went negative")
        assert error.trace_tail == []

    def test_sanitized_and_traced_session_coexist(self):
        with sanitize.sanitized(), obs.tracing() as bus:
            result = common.run_testbed_session(
                common.manual_params(66_000, 8_000_000.0)
            )
        assert result.completed
        assert bus.counts.get("session:first_frame") == 1


class TestTimelineRendering:
    def breakdowns(self):
        result, _bus = traced_session()
        return {"Baseline": result.phase_breakdown, "Missing": None}

    def test_mean_breakdown(self):
        result, _bus = traced_session()
        b = result.phase_breakdown
        averaged = mean_breakdown([b, None, b])
        assert averaged == b
        assert mean_breakdown([None, None]) is None

    def test_phase_table_renders_deltas_and_dashes(self):
        by_scheme = self.breakdowns()
        by_scheme["Wira"] = by_scheme["Baseline"]
        rendered = phase_table(by_scheme, baseline="Baseline").render()
        assert "vs Baseline" in rendered
        assert "+0.0ms" in rendered  # identical breakdown: zero delta
        assert "-" in rendered  # the breakdown-less scheme row

    def test_render_timeline_scales_and_labels(self):
        rendered = render_timeline(self.breakdowns())
        assert "t=transmit" in rendered  # legend
        assert "(no breakdown)" in rendered  # None row
        assert "|" in rendered

    def test_render_timeline_without_breakdowns(self):
        assert "WIRA_TRACE=1" in render_timeline({"Baseline": None})

    def test_deployment_phase_table_none_when_untraced(self):
        obs.disable()
        from repro.experiments import runner
        from repro.workload.population import DeploymentConfig

        records = runner.run_deployment(
            DeploymentConfig(n_od_pairs=2, seed=3, video_frames_per_session=4),
            (common.BASELINE,),
            use_cache=False,
        )
        assert deployment_phase_table(records) is None

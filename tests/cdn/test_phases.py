"""Every session carries its FFCT phase breakdown, traced or not.

``phase_breakdowns.json`` holds, per scheme and session, the breakdowns
(float ``repr``) that the trace-event profiler this replaced derived
under ``WIRA_TRACE=1`` for a small five-scheme deployment.  The sessions
now build their own breakdown from milestones recorded where they
happen; untraced, they must give those numbers exactly.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cdn.session import PHASES, SessionSpec, StreamingSession
from repro.core.schemes import BASELINE, STATIC_10, WIRA, WIRA_FF, WIRA_HX
from repro.experiments import robustness, runner
from repro.workload.population import DeploymentConfig

FIXTURE = Path(__file__).with_name("phase_breakdowns.json")
SCHEMES = (BASELINE, WIRA_FF, WIRA_HX, WIRA, STATIC_10)
CONFIG = DeploymentConfig(n_od_pairs=4, seed=7, video_frames_per_session=6)


def breakdown_reprs(result):
    breakdown = result.phase_breakdown
    if breakdown is None:
        return None
    return [repr(breakdown.phase(name)) for name in PHASES]


def assert_sums_to_ffct(result):
    if result.ffct is None:
        assert result.phase_breakdown is None
    else:
        assert result.phase_breakdown.total == pytest.approx(result.ffct, abs=1e-12)


def test_untraced_breakdowns_match_the_trace_profiler(monkeypatch):
    monkeypatch.setattr(obs, "ACTIVE", None)
    expected = json.loads(FIXTURE.read_text())
    records = runner.run_deployment(CONFIG, SCHEMES, use_cache=False, jobs=1)
    for scheme in SCHEMES:
        outcomes = records[scheme]
        assert len(outcomes) == len(expected[scheme.value])
        for index, (outcome, pinned) in enumerate(zip(outcomes, expected[scheme.value])):
            assert breakdown_reprs(outcome.result) == pinned, (scheme.value, index)
            assert_sums_to_ffct(outcome.result)


@pytest.mark.parametrize("fault", sorted(robustness.fault_plan_matrix()))
def test_faulted_sessions_sum_to_ffct(fault, monkeypatch):
    """Under every injected fault and a lossy schedule; the session cut
    short of its first frame has no breakdown."""
    monkeypatch.setattr(obs, "ACTIVE", None)
    config = robustness.RobustnessConfig()
    schedule = robustness.build_schedules(config.conditions)["bursty_ge"]
    for timeout in (30.0, 0.01):
        spec = SessionSpec(
            conditions=config.conditions,
            scheme=WIRA,
            seed=7,
            timeout=timeout,
            schedule=schedule,
            fault_plan=robustness.fault_plan_matrix()[fault],
        )
        result = StreamingSession(
            spec, robustness.stream_origin(), robustness.STREAM
        ).run()
        assert (result.ffct is None) == (timeout < 1.0)
        assert_sums_to_ffct(result)

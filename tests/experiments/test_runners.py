"""Tests for the experiment runners at miniature scale.

The benchmarks exercise the paper-scale configurations; these tests
check the runners' mechanics (bucketing, pairing, caching, summaries)
quickly.
"""

import pytest

from repro.core.schemes import BASELINE, STATIC_10, WIRA, WIRA_FF, WIRA_HX
from repro.experiments import (
    baseline_ab,
    common,
    fig1,
    fig2,
    fig3,
    fig4,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    runner,
    table1,
)
from repro.quic.connection import HandshakeMode
from repro.workload.population import DeploymentConfig

TINY = DeploymentConfig(n_od_pairs=6, seed=99, video_frames_per_session=8)


@pytest.fixture(scope="module")
def tiny_records():
    return runner.run_deployment(TINY, common.EVAL_SCHEMES)


class TestCommon:
    def test_records_paired_across_schemes(self, tiny_records):
        lengths = {scheme: len(outcomes) for scheme, outcomes in tiny_records.items()}
        assert len(set(lengths.values())) == 1
        base = tiny_records[BASELINE]
        wira = tiny_records[WIRA]
        for b, w in zip(base, wira):
            assert b.spec.seed == w.spec.seed
            assert b.spec.conditions == w.spec.conditions

    def test_all_sessions_complete(self, tiny_records):
        for outcomes in tiny_records.values():
            assert all(o.result.completed for o in outcomes)

    def test_cache_returns_same_object(self, tiny_records):
        again = runner.run_deployment(TINY, common.EVAL_SCHEMES)
        assert again is tiny_records

    def test_testbed_session_runs(self):
        result = common.run_testbed_session(common.manual_params(57_600, 8e6), seed=1)
        assert result.completed
        assert result.initial_params.cwnd_bytes == 57_600


class TestMotivationRunners:
    def test_fig1_small(self):
        result = fig1.run(n_streams=100, intra_samples=10, seed=2)
        assert len(result.inter_stream_sizes) == 100
        assert result.mean_kb > 10

    def test_fig2_single_repeat(self):
        result = fig2.run(repeats=2, seed=5)
        assert len(result.cwnd_sweep) == 5
        assert len(result.pacing_sweep) == 5
        assert all(p.ffct > 0 for p in result.cwnd_sweep)

    def test_fig3_small(self):
        result = fig3.run(n_groups=20, connections_per_group=10, seed=3)
        assert len(result.rtt_cvs) == 20
        assert 0 < result.avg_rtt_cv < 1

    def test_fig4_small(self):
        result = fig4.run(n_od_pairs=20, sessions_per_od=6, seed=4)
        assert set(result.by_interval) == {5.0, 10.0, 30.0, 60.0}
        assert result.by_interval[5.0].avg_rtt_cv < result.by_interval[60.0].avg_rtt_cv * 2

    def test_table1_rows_verify(self):
        rows = table1.run()
        table1.verify(rows)
        assert {r.scheme for r in rows} == {
            BASELINE, WIRA_FF, WIRA_HX, WIRA,
        }


class TestEvaluationSummaries:
    def test_fig11_summary(self, tiny_records):
        result = fig11.summarize(tiny_records)
        assert set(result.by_scheme) == set(common.EVAL_SCHEMES)
        assert result.improvement(BASELINE) == 0.0

    def test_fig12_summary(self, tiny_records):
        result = fig12.summarize(tiny_records)
        total = sum(
            len(result.get(mode, WIRA).samples) for mode in HandshakeMode
        )
        assert total == len(tiny_records[WIRA])

    def test_fig13_bucketing_covers_sessions(self, tiny_records):
        result = fig13.summarize(tiny_records)
        bucketed = sum(
            len(samples)
            for per_scheme in result.by_rtt.table.values()
            for scheme, samples in per_scheme.items()
            if scheme == BASELINE
        )
        assert bucketed == len(tiny_records[BASELINE])

    def test_fig13_same_bucket_across_schemes(self, tiny_records):
        result = fig13.summarize(tiny_records)
        for bucket, per_scheme in result.by_ff.table.items():
            sizes = {len(v) for v in per_scheme.values()}
            assert len(sizes) == 1  # paired bucketing

    def test_fig14_summary(self, tiny_records):
        result = fig14.summarize(tiny_records)
        assert result.improvement(BASELINE) == 0.0
        for scheme in common.EVAL_SCHEMES:
            assert 0.0 <= result.overall[scheme].avg < 0.5

    def test_fig15_summary(self, tiny_records):
        result = fig15.summarize(tiny_records)
        for k in (1, 2, 3, 4):
            t = result.mean_completion(WIRA, k)
            assert t is not None and t > 0
        t1 = result.mean_completion(WIRA, 1)
        t4 = result.mean_completion(WIRA, 4)
        assert t4 > t1

    def test_baseline_ab_small(self):
        result = baseline_ab.run(TINY)
        assert result.avg(STATIC_10) > 0
        assert result.avg(BASELINE) > 0

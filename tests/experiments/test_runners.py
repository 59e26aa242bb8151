"""Tests for the experiment runners at miniature scale.

The benchmarks exercise the paper-scale configurations; these tests
check the runners' mechanics (bucketing, pairing, caching, summaries)
quickly.
"""

import json
from pathlib import Path

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
from repro.metrics.report import format_pct
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


#: Every defined summary value of Figs 11–15 and the A/B at ``TINY``,
#: recorded from the per-figure summary classes these tables replaced;
#: keys are ``figure/group/scheme/stat``.  A changed value is a changed
#: outcome, not a refactor.
RECORDED_AT_TINY = Path(__file__).with_name("tiny_summaries.json")


def _defined_summaries(records, ab):
    """The values :data:`RECORDED_AT_TINY` holds, recomputed; an
    undefined one (``None``) is left out."""
    out = {}

    def put(key, value):
        if value is not None:
            out[key] = value

    def cell(prefix, table, group, scheme, qs=fig11.PERCENTILES, gains=True):
        series = table[group, scheme]
        put(f"{prefix}/n", len(series))
        put(f"{prefix}/avg", series.avg)
        put(f"{prefix}/gain", common.gain(table, scheme, group=group))
        for q in qs:
            put(f"{prefix}/p{q}", series.p(q))
            if gains:
                put(f"{prefix}/gain{q}", common.gain(table, scheme, q, group))

    by_ffct, by_mode, fflr = (
        fig11.summarize(records), fig12.summarize(records), fig14.summarize(records)
    )
    completion, loss = fig15.summarize(records)
    for scheme in records:
        s = scheme.value
        cell(f"fig11//{s}", by_ffct, None, scheme)
        cell(f"fig14//{s}", fflr, None, scheme)
        for mode in HandshakeMode:
            cell(f"fig12/{mode.name}/{s}", by_mode, mode, scheme)
            cell(f"fig14/{mode.name}/{s}", fflr, mode, scheme)
        for k in fig15.FRAMES:
            cell(f"fig15/completion:{k}/{s}", completion[k], None, scheme, qs=())
            put(f"fig15/loss:{k}/{s}/n", len(loss[k][None, scheme]))
            put(f"fig15/loss:{k}/{s}/avg", loss[k][None, scheme].avg)
    put("fig12/zero_rtt_fraction", fig12.zero_rtt_fraction(by_mode))
    for dimension, table in fig13.summarize(records).items():
        for bucket, scheme in table:
            cell(f"fig13/{dimension}:{bucket}/{scheme.value}", table, bucket, scheme, qs=())
        out[f"fig13/{dimension}/buckets"] = fig13.buckets(table)
    for scheme in (STATIC_10, BASELINE):
        series = ab[None, scheme]
        put(f"ab//{scheme.value}/n", len(series))
        put(f"ab//{scheme.value}/avg", series.avg)
        put(f"ab//{scheme.value}/p90", series.p(90))
    return out


class TestEvaluationSummaries:
    def test_fig11_summary(self, tiny_records):
        table = fig11.summarize(tiny_records)
        assert table.keys() == {(None, scheme) for scheme in common.EVAL_SCHEMES}
        assert common.gain(table, BASELINE) == 0.0

    def test_fig12_summary(self, tiny_records):
        table = fig12.summarize(tiny_records)
        total = sum(len(table[mode, WIRA]) for mode in HandshakeMode)
        assert total == len(tiny_records[WIRA])

    def test_fig13_bucketing_covers_sessions(self, tiny_records):
        table = fig13.summarize(tiny_records)["rtt"]
        bucketed = sum(
            len(series) for (_, scheme), series in table.items() if scheme == BASELINE
        )
        assert bucketed == len(tiny_records[BASELINE])

    def test_fig13_same_bucket_across_schemes(self, tiny_records):
        table = fig13.summarize(tiny_records)["ff"]
        for bucket in fig13.buckets(table):
            sizes = {len(table[bucket, scheme]) for scheme in tiny_records}
            assert len(sizes) == 1  # paired bucketing

    def test_fig14_summary(self, tiny_records):
        table = fig14.summarize(tiny_records)
        assert common.gain(table, BASELINE) == 0.0
        for scheme in common.EVAL_SCHEMES:
            assert 0.0 <= table[None, scheme].avg < 0.5

    def test_fig15_summary(self, tiny_records):
        completion, _ = fig15.summarize(tiny_records)
        for k in (1, 2, 3, 4):
            t = completion[k][None, WIRA].avg
            assert t is not None and t > 0
        t1 = completion[1][None, WIRA].avg
        t4 = completion[4][None, WIRA].avg
        assert t4 > t1

    def test_baseline_ab_small(self):
        table = baseline_ab.run(TINY)
        assert table[None, STATIC_10].avg > 0
        assert table[None, BASELINE].avg > 0

    def test_summaries_match_recorded_values(self, tiny_records):
        recorded = json.loads(RECORDED_AT_TINY.read_text())
        assert _defined_summaries(tiny_records, baseline_ab.run(TINY)) == recorded

    def test_undefined_gain_is_none(self, tiny_records):
        # TINY has no 1-RTT session and a zero baseline median FFLR: such
        # gains used to raise or read as a 0.0 "no improvement".
        fflr = fig14.summarize(tiny_records)
        by_mode = fig12.summarize(tiny_records)
        by_bw = fig13.summarize(tiny_records)["bw"]
        assert len(by_mode[HandshakeMode.ONE_RTT, BASELINE]) == 0
        assert fflr[None, BASELINE].p(50) == 0.0
        assert len(by_bw["(20,60]", BASELINE]) == 0
        # Fig 15 over the sessions whose first frame the baseline lost
        # nothing of (a zero baseline), and over no sessions at all.
        base = tiny_records[BASELINE]
        lossless = [i for i, o in enumerate(base) if o.result.frame_loss_rate(1) == 0]
        assert lossless
        _, loss = fig15.summarize(
            {s: [outcomes[i] for i in lossless] for s, outcomes in tiny_records.items()}
        )
        completion, _ = fig15.summarize({s: [] for s in tiny_records})
        undefined = [
            common.gain(fflr, WIRA, 50),
            common.gain(by_mode, WIRA, group=HandshakeMode.ONE_RTT),
            common.gain(fflr, WIRA, group=HandshakeMode.ONE_RTT),
            common.gain(by_bw, WIRA, group="(20,60]"),
            common.gain(loss[1], WIRA),
            common.gain(completion[1], WIRA),
        ]
        assert undefined == [None] * len(undefined)
        assert {format_pct(g, signed=True) for g in undefined} == {"-"}

"""Byte-identity: batched session execution vs the solo reference.

``run_sessions`` must produce *exactly* the results of running each
session on its own EventLoop — every metric, every counter, every
timestamp — across handshake modes, schemes, loss, timeouts, and the
cookie round-trip.  These tests are the gate on the batched kernel.
"""

import random

import pytest

from repro import obs, sanitize
from repro.cdn import batchrun, session as session_module
from repro.cdn.batchrun import run_sessions
from repro.cdn.origin import Origin
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.schemes import BASELINE, WIRA, WIRA_FF, WIRA_HX
from repro.core.transport_cookie import ClientCookieStore, ServerCookieManager
from repro.experiments import common
from repro.media.source import StreamProfile
from repro.quic.connection import HandshakeMode
from repro.simnet.path import NetworkConditions
from repro.workload.population import Deployment, DeploymentConfig

COOKIE_KEY = b"wira-batchrun-cookie-key-32bytes"


def _profile(seed):
    return StreamProfile(
        first_frame_target_bytes=40_000,
        complexity_sigma=0.05,
        size_jitter=0.05,
        seed=seed,
    )


def _build(spec, tag, store=None, manager=None):
    origin = Origin()
    origin.add_stream(f"stream-{tag}", _profile(100 + tag))
    return StreamingSession(
        spec,
        origin,
        f"stream-{tag}",
        cookie_store=store,
        cookie_manager=manager,
    )


def _varied_specs():
    """A spread of sessions exercising different paths and phases."""
    rnd = random.Random(20240808)
    specs = []
    schemes = [BASELINE, WIRA, WIRA_FF, WIRA_HX]
    modes = [HandshakeMode.ZERO_RTT, HandshakeMode.ONE_RTT]
    for i in range(10):
        conditions = NetworkConditions(
            bandwidth_bps=rnd.choice([2e6, 8e6, 20e6]),
            rtt=rnd.choice([0.02, 0.05, 0.2]),
            loss_rate=rnd.choice([0.0, 0.01, 0.03]),
            buffer_bytes=rnd.choice([25_000, 256 * 1024]),
        )
        specs.append(
            SessionSpec(
                conditions=conditions,
                scheme=schemes[i % len(schemes)],
                handshake_mode=modes[i % len(modes)],
                seed=1000 + i,
                epoch=float(i) * 7.0,
                client_supports_cookies=(i % 3 != 2),
            )
        )
    # A session that cannot complete: starved bandwidth + tiny timeout.
    specs.append(
        SessionSpec(
            conditions=NetworkConditions(bandwidth_bps=40_000.0, rtt=0.4, loss_rate=0.05),
            scheme=BASELINE,
            seed=77,
            timeout=1.5,
        )
    )
    return specs


class TestBatchedEqualsSolo:
    def test_varied_sessions_identical(self):
        specs = _varied_specs()
        solo = [_build(spec, tag=i).run() for i, spec in enumerate(specs)]
        batched = run_sessions([_build(spec, tag=i) for i, spec in enumerate(specs)])
        assert len(batched) == len(solo)
        for got, expected in zip(batched, solo):
            assert got == expected

    def test_result_order_matches_input_order(self):
        specs = _varied_specs()[:4]
        sessions = [_build(spec, tag=i) for i, spec in enumerate(specs)]
        results = run_sessions(sessions)
        for spec, result in zip(specs, results):
            # Sessions canonicalize the scheme to its registry SchemeSpec;
            # value-equality keeps it addressable by the enum member.
            assert result.scheme == spec.scheme
            assert result.handshake_mode is spec.handshake_mode

    def test_cookie_chain_across_waves(self):
        """Chained sessions (store carried forward) run wave by wave.

        Wave k batches the k-th session of several chains; within a
        chain, cookies must flow session→session exactly as solo.
        """
        config = DeploymentConfig(n_od_pairs=4, seed=5, video_frames_per_session=6)
        chains = Deployment(config).generate()
        wira = common.WiraConfig()

        solo = [
            list(common.iter_chain_outcomes(WIRA, chain, idx, config, wira))
            for idx, chain in enumerate(chains)
        ]

        # Batched: per-chain environments persist across waves.
        stores = [ClientCookieStore() for _ in chains]
        managers = [
            ServerCookieManager(common.COOKIE_KEY, staleness_delta=wira.staleness_delta)
            for _ in chains
        ]
        origins = []
        for idx, chain in enumerate(chains):
            origin = Origin()
            origin.add_stream(f"stream-{idx}", chain[0].stream_profile)
            origins.append(origin)

        results = [[] for _ in chains]
        wave = 0
        while True:
            todo = [idx for idx, chain in enumerate(chains) if len(chain) > wave]
            if not todo:
                break
            sessions = [
                StreamingSession(
                    common.session_spec_for(
                        chains[idx][wave], WIRA, idx, config, wira
                    ),
                    origins[idx],
                    f"stream-{idx}",
                    cookie_store=stores[idx],
                    cookie_manager=managers[idx],
                )
                for idx in todo
            ]
            for idx, result in zip(todo, run_sessions(sessions)):
                results[idx].append(result)
            wave += 1

        for idx, chain_outcomes in enumerate(solo):
            assert len(results[idx]) == len(chain_outcomes)
            for got, outcome in zip(results[idx], chain_outcomes):
                assert got == outcome.result

    def test_batched_cookie_delivery_happens(self):
        """The flush phase actually delivers cookies in batched mode."""
        spec = SessionSpec(
            conditions=NetworkConditions(bandwidth_bps=8e6, rtt=0.05),
            scheme=WIRA,
            seed=3,
        )
        store_a, store_b = ClientCookieStore(), ClientCookieStore()
        manager = ServerCookieManager(COOKIE_KEY)
        results = run_sessions(
            [
                _build(spec, tag=0, store=store_a, manager=manager),
                _build(spec.with_(seed=4), tag=1, store=store_b, manager=manager),
            ]
        )
        assert all(r.completed for r in results)
        assert all(r.cookie_delivered for r in results)

    def test_single_session_takes_solo_path(self):
        spec = _varied_specs()[0]
        solo = _build(spec, tag=0).run()
        assert run_sessions([_build(spec, tag=0)]) == [solo]

    def test_empty_batch(self):
        assert run_sessions([]) == []

    def test_tracing_falls_back_to_solo(self):
        """With a trace bus active the batch runner must not interleave."""
        specs = _varied_specs()[:3]
        with obs.tracing():
            results = run_sessions([_build(spec, tag=i) for i, spec in enumerate(specs)])
        assert len(results) == 3
        # Solo fallback still annotates phase breakdowns via the bus.
        assert all(r.phase_breakdown is not None for r in results if r.completed)


class TestSpentSliceBudget:
    """A slice that runs out of events, not time (never reached at the
    shipped 100 000-event budget, so shrunk here)."""

    @pytest.mark.parametrize("budget", [1, 7, 50])
    def test_member_clock_never_rewinds_and_matches_solo(self, monkeypatch, budget):
        """``run_until`` leaves the clock at the last event when it stops
        on ``max_events`` with events still due, and the batched driver
        mirrors that: the sanitizer's ``clock_monotonic`` check holds on
        both kernels, in the run phase and in the cookie flush, and the
        results stay identical."""
        specs = _varied_specs()[:4] + _varied_specs()[-1:]
        monkeypatch.setattr(obs, "ACTIVE", None)  # a trace bus would force the solo path
        monkeypatch.setattr(batchrun, "_SLICE_EVENTS", budget)
        with sanitize.sanitized() as san:
            batched = run_sessions([_build(spec, tag=i) for i, spec in enumerate(specs)])
        assert san.checks_run["clock_monotonic"] > 0
        monkeypatch.setattr(session_module, "_SLICE_EVENTS", budget)
        with sanitize.sanitized():
            solo = [_build(spec, tag=i).run() for i, spec in enumerate(specs)]
        assert batched == solo
        # The flush phase ran to its end instead of being abandoned.
        assert any(result.cookie_delivered for result in solo)

"""Nothing cyclic survives a session: it is freed, not collected.

A figure is thousands of sessions one after another, so what a finished
session still costs is paid thousands of times.  Every case here runs
with the cycle collector switched off, keeps only what the run returns,
and then asks the collector what it can find: the answer must be nothing
— the topology (connections, links, loop, application handlers) died by
reference count the moment the session returned.

A callback attribute added to ``Connection``, ``Path`` or ``Link`` that
``close()`` does not release shows up here as a non-zero count.
"""

import asyncio
import gc
import tracemalloc
from typing import Callable, Tuple, TypeVar

import pytest

from repro import obs
from repro.cdn.origin import Origin
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.config import WiraConfig
from repro.core.schemes import BASELINE, WIRA
from repro.core.transport_cookie import ClientCookieStore
from repro.experiments import common
from repro.experiments.robustness import build_schedules
from repro.faults import single_fault_plans
from repro.media.source import StreamProfile
from repro.quic.cc import CONTROLLERS
from repro.quic.config import QuicConfig
from repro.quic.connection import HandshakeMode
from repro.serve.shard import ShardServer
from repro.simnet.path import NetworkConditions
from repro.workload.population import Deployment, DeploymentConfig

T = TypeVar("T")

CONDITIONS = NetworkConditions(
    bandwidth_bps=8_000_000.0, rtt=0.050, loss_rate=0.03, buffer_bytes=25_000
)


def kept_and_found(run: Callable[[], T]) -> Tuple[T, int]:
    """``run()`` with the collector off; what it returned, and how many
    unreachable objects a collection finds once only that is kept."""
    gc.collect()
    gc.disable()
    try:
        kept = run()
        return kept, gc.collect()
    finally:
        gc.enable()


def make_origin() -> Origin:
    origin = Origin()
    origin.add_stream(
        "demo",
        StreamProfile(
            first_frame_target_bytes=66_000, seed=1, complexity_sigma=0.02, size_jitter=0.02
        ),
    )
    return origin


def session(store=None, **spec_fields) -> StreamingSession:
    spec_fields.setdefault("conditions", CONDITIONS)
    spec_fields.setdefault("scheme", WIRA)
    spec_fields.setdefault("seed", 3)
    return StreamingSession(
        SessionSpec(**spec_fields), make_origin(), "demo", cookie_store=store
    )


class TestOneSession:
    @pytest.mark.parametrize("mode", list(HandshakeMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("cookie", ["hit", "miss", "unsupported"])
    def test_handshake_by_cookie_state(self, mode, cookie):
        def run():
            # The store is built in here: one kept by the test would keep
            # whatever still observes it reachable, and hide the garbage.
            store = ClientCookieStore()
            if cookie == "hit":
                primed = session(store, scheme=BASELINE, handshake_mode=mode).run()
                assert primed.cookie_delivered
            return session(
                store,
                handshake_mode=mode,
                epoch=10.0,
                client_supports_cookies=cookie != "unsupported",
            ).run()

        result, found = kept_and_found(run)
        assert result.completed
        assert result.used_cookie == (cookie == "hit")
        assert found == 0

    @pytest.mark.parametrize("controller", sorted(CONTROLLERS))
    def test_every_congestion_controller(self, controller):
        config = QuicConfig(congestion_controller=controller)
        result, found = kept_and_found(lambda: session(quic_config=config).run())
        assert result.completed
        assert found == 0

    def test_fault_plan(self):
        plan = single_fault_plans()["datagram_bitflip"]
        result, found = kept_and_found(lambda: session(fault_plan=plan).run())
        assert result.fault_summary
        assert found == 0

    def test_non_inert_schedule(self):
        schedule = build_schedules(CONDITIONS)["surge_flap"]
        assert not schedule.is_inert
        result, found = kept_and_found(lambda: session(schedule=schedule).run())
        assert result.completed
        assert found == 0

    def test_timeout_leaves_an_incomplete_session(self):
        """The loop is cut off mid-transfer, with deliveries, timers and
        the origin's later batches all still queued."""
        result, found = kept_and_found(lambda: session(timeout=0.08).run())
        assert not result.completed
        assert found == 0

    def test_traced_path(self):
        def run():
            with obs.tracing():
                return session().run()

        result, found = kept_and_found(run)
        assert result.phase_breakdown is not None
        assert found == 0


CHAIN_CONFIG = DeploymentConfig(n_od_pairs=8, seed=23, video_frames_per_session=6)
SCHEMES = (BASELINE, WIRA)


class TestChainHandOff:
    def test_replay_state_dies_clean_after_the_last_session(self):
        """The chain's store, manager and policy outlive each session;
        when they go, nothing of the last session goes with them."""
        chains = Deployment(CHAIN_CONFIG).generate()
        index = max(range(len(chains)), key=lambda i: len(chains[i]))
        assert len(chains[index]) >= 2

        def run():
            return list(
                common.iter_chain_outcomes(
                    WIRA, chains[index], index, CHAIN_CONFIG, WiraConfig()
                )
            )

        outcomes, found = kept_and_found(run)
        assert any(outcome.result.used_cookie for outcome in outcomes)
        assert found == 0

    def test_block_of_chains_under_every_scheme(self):
        chains = Deployment(CHAIN_CONFIG).generate()[:2]
        run = lambda: common.replay_block(SCHEMES, chains, 0, CHAIN_CONFIG, WiraConfig())
        per_scheme, found = kept_and_found(run)
        assert sorted(per_scheme) == sorted(scheme.value for scheme in SCHEMES)
        assert found == 0


def _peak_and_kept_bytes(n_chains: int) -> Tuple[int, int]:
    """tracemalloc's peak over one ``replay_block``, and what is still
    allocated once only its return value is kept (after a collection:
    garbage is part of the peak, not of what was handed back)."""
    chains = Deployment(CHAIN_CONFIG).generate()[:n_chains]
    gc.collect()
    gc.disable()  # garbage, if any is made, piles up and counts
    tracemalloc.start()
    try:
        outcomes = common.replay_block(SCHEMES, chains, 0, CHAIN_CONFIG, WiraConfig())
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert sum(len(chain) for chain in outcomes[WIRA.value]) == sum(map(len, chains))
    return peak, kept


def test_replay_memory_does_not_grow_with_block_size():
    """Scale-free: eight chains peak above two chains by what the six
    extra chains hand back, not by what replaying them took."""
    peak_2, kept_2 = _peak_and_kept_bytes(2)
    peak_8, kept_8 = _peak_and_kept_bytes(8)
    assert peak_8 - peak_2 <= (kept_8 - kept_2) + 1_000_000


def test_serve_executor_clears_the_loop_it_owns():
    """``ShardServer._run_sim`` owns its loop as ``_run`` does; that no
    ``Connection`` outlives its session on a live shard is asserted over
    real sockets by ``tests/serve/test_e2e.py``."""
    shard = ShardServer(shard_id=0, cookie_key=b"k" * 32, instance_salt=b"shard:0")
    run = lambda: asyncio.run(shard._run_sim(session(target_video_frames=4)))
    (result, _sim_end), found = kept_and_found(run)
    assert result.completed
    assert found == 0

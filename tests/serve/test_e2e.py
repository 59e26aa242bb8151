"""End-to-end serve tests: real UDP sockets, sim as the timing oracle.

Kept deliberately small (few OD pairs, few frames) so the whole module
stays well under a minute; the CI ``serve-smoke`` job runs the larger
campaign through ``tools/wira_serve``.
"""

import asyncio
import gc

import pytest

from repro.quic.connection import Connection
from repro.serve.driver import ServeDriver
from repro.serve.loadtest import ControlClient, ServeLoadtestConfig, run_loadtest
from repro.serve.shard import SESSION_LINGER, ShardServer
from repro.workload.population import DeploymentConfig, FleetPopulation

#: In-process replay error is ~1ms; give loaded CI two orders of slack.
SINGLE_SESSION_FFCT_SLACK = 0.10  # seconds


def _population(n_od_pairs: int, seed: int = 0) -> DeploymentConfig:
    return DeploymentConfig(
        n_od_pairs=n_od_pairs,
        mean_extra_sessions=1.0,
        max_sessions_per_od=3,
        video_frames_per_session=4,
        seed=seed,
    )


class TestSingleSession:
    def test_wall_ffct_tracks_sim_ffct(self):
        asyncio.run(self._run())

    async def _run(self):
        config = ServeLoadtestConfig(population=_population(1))
        shard = ShardServer(
            shard_id=0,
            cookie_key=config.cookie_key(),
            instance_salt=config.shard_salt(0),
        )
        addr = await shard.start()
        driver = ServeDriver(addr, campaign_seed=0)
        await driver.start()
        try:
            planned = FleetPopulation(config.population).chain(0)[0]
            outcome = await driver.run_session(
                planned, "wira", "od-0", "stream-0", 4
            )
            assert outcome.summary.sim_ffct is not None
            assert outcome.result.ffct is not None
            assert outcome.wall_ffct == pytest.approx(
                outcome.summary.sim_ffct, abs=SINGLE_SESSION_FFCT_SLACK
            )
            # The SessionResult carries the socket measurement — the
            # campaign FFCT gate compares these against the sim within
            # the documented tolerance, so they must be the wall value.
            assert outcome.result.ffct == pytest.approx(outcome.wall_ffct)
            assert driver.stats["wire_failures"] == 0
        finally:
            driver.close()
            await shard.close()


class TestWorldStore:
    """The shard's per-OD worlds are a bounded memo: one per pair however
    many schemes replay it, swept when idle, rebuilt invisibly."""

    def test_idle_worlds_are_swept_and_eviction_is_invisible(self):
        summaries = [asyncio.run(self._chain_summaries(evict)) for evict in (False, True)]
        assert summaries[0] == summaries[1]

    async def _chain_summaries(self, evict):
        config = ServeLoadtestConfig(population=_population(3, seed=5))
        population = FleetPopulation(config.population)
        chains = [population.chain(i) for i in range(3)]
        index = next(i for i, chain in enumerate(chains) if len(chain) >= 2)
        first, second = chains[index][:2]
        other = chains[(index + 1) % 3][0]
        shard = ShardServer(
            shard_id=0,
            cookie_key=config.cookie_key(),
            instance_salt=config.shard_salt(0),
        )
        addr = await shard.start()
        driver = ServeDriver(addr, campaign_seed=0)
        control = ControlClient()
        await driver.start()
        await control.start()

        async def chains_held():
            return (await control.request(addr, "stats"))["chains"]

        try:
            outcomes = [await driver.run_session(first, "wira", "od-a", "stream-a", 4)]
            for scheme in ("baseline", "wira"):
                await driver.run_session(other, scheme, "od-b", "stream-b", 4)
            assert await chains_held() == 2  # per OD pair, not per (scheme, pair)
            if evict:
                # A clock at which od-b's last session is exactly
                # SESSION_LINGER old, and od-a's therefore older.
                shard._sweep(shard._chains["od-b"].last_active + SESSION_LINGER)
                assert await chains_held() == 1
                assert "od-a" not in shard._chains
            outcomes.append(await driver.run_session(second, "wira", "od-a", "stream-a", 4))
            assert await chains_held() == 2
            assert driver.stats["wire_failures"] == 0
            return [outcome.summary for outcome in outcomes]
        finally:
            control.close()
            driver.close()
            await shard.close()


class TestFinishedSessionsHoldNothing:
    """What a finished session leaves behind must not wait for the 5 s
    sweep: resident memory would be (sessions/s x sweep period x stream
    bytes) and rise as the edge gets faster."""

    def test_timeline_released_at_done_and_tasks_drop_themselves(self):
        # Collector off for the whole campaign: a simulated topology is
        # gone when its SHLO is, freed by its executor, not collected.
        gc.collect()
        gc.disable()
        try:
            asyncio.run(self._run())
            alive = [o for o in gc.get_objects() if isinstance(o, Connection)]
        finally:
            gc.enable()
        assert alive == []

    async def _run(self):
        config = ServeLoadtestConfig(population=_population(3, seed=5))
        population = FleetPopulation(config.population)
        chain = max((population.chain(i) for i in range(3)), key=len)
        sessions = [(planned, scheme) for planned in chain for scheme in ("baseline", "wira")]
        n_sessions = len(sessions)
        assert n_sessions >= 4
        shard = ShardServer(
            shard_id=0,
            cookie_key=config.cookie_key(),
            instance_salt=config.shard_salt(0),
        )
        addr = await shard.start()
        driver = ServeDriver(addr, campaign_seed=0)
        control = ControlClient()
        await driver.start()
        await control.start()
        try:
            for planned, scheme in sessions:
                await driver.run_session(planned, scheme, "od-0", "stream-0", 4)
            # A control round trip orders us behind the last DONE.
            stats = await control.request(addr, "stats")
            await asyncio.sleep(0)
            assert stats["stats"]["replays"] == n_sessions
            # No sweep has run: the husks are still there, so late packets
            # still find their flow, but the stream bytes are gone.
            assert stats["live_sessions"] == n_sessions
            assert all(s.done and s.events == [] for s in shard._sessions.values())
            # One task (the sim) was spawned per session and the replay
            # ran on loop timers: no finished task is kept, no replay
            # timer is pending, and the driver has let every flow go.
            assert not any(task.done() for task in shard._tasks)
            assert len(shard._tasks) < n_sessions
            assert all(s.replay_timer is None for s in shard._sessions.values())
            assert driver._flows == {}
            assert driver.stats["wire_failures"] == 0
        finally:
            control.close()
            driver.close()
            await shard.close()


class TestInProcessCampaign:
    def test_gates_pass_with_exact_discrete_parity(self):
        config = ServeLoadtestConfig(
            population=_population(4, seed=1),
            shards=2,
            subprocess_shards=False,
        )
        results = run_loadtest(config)
        gates = results["gates"]
        assert gates["wire_failures"] == 0
        assert gates["rejected_cookies"] == 0
        assert gates["comparison_ok"], results["comparison"]
        assert gates["ok"]
        comparison = results["comparison"]
        for value in config.schemes:
            entry = comparison["schemes"][value]
            assert entry["serve"]["sessions"] == entry["sim"]["sessions"]
            assert entry["serve"]["completed"] == entry["sim"]["completed"]
            assert (
                entry["serve"]["cookie_delivered"]
                == entry["sim"]["cookie_delivered"]
            )
            assert entry["serve"]["used_cookie"] == entry["sim"]["used_cookie"]

    def test_reshard_keeps_sessions_sticky(self):
        """Adding a shard mid-campaign must not disturb in-flight or
        subsequent sessions: affinity pins each OD chain, so the gates
        (including exact cookie-chain parity) still pass."""
        config = ServeLoadtestConfig(
            population=_population(5, seed=2),
            shards=2,
            subprocess_shards=False,
            reshard_after_chains=1,
            concurrency=2,
        )
        results = run_loadtest(config)
        telemetry = results["telemetry"]
        assert telemetry["resharded"]
        assert telemetry["shard_count_final"] == 3
        assert telemetry["router"]["reshards"] == 1
        assert results["gates"]["ok"], results["comparison"]


class TestSubprocessShards:
    def test_worker_process_smoke(self):
        """Two real ``python -m repro.serve.shard`` worker processes."""
        config = ServeLoadtestConfig(
            population=_population(2, seed=3),
            shards=2,
            subprocess_shards=True,
        )
        results = run_loadtest(config)
        assert results["gates"]["ok"], results["comparison"]
        telemetry = results["telemetry"]
        assert telemetry["sessions_measured"] > 0
        # Both workers were real processes reachable over the wire.
        assert len(telemetry["shards"]) == 2
        for stats in telemetry["shards"]:
            assert stats["op"] == "stats"

"""The serve edge per datagram: what it costs the loop, and the session
rules that now hang off the GET and the driver's stall timer.

Each test runs a shard and a driver in process over real loopback UDP.
"""

import asyncio
import time

from repro.serve import protocol
from repro.serve.driver import HANDSHAKE_RETRY, ServeDriver
from repro.serve.loadtest import ServeLoadtestConfig
from repro.serve.shard import ShardServer
from repro.workload.population import DeploymentConfig, FleetPopulation

#: Every test here finishes in a few seconds; the parent of the GET and
#: tail-loss fixes needed 45 s and 5 s for the same sessions.
SESSION_TIMEOUT = 15.0


def _config(frames: int = 4) -> ServeLoadtestConfig:
    return ServeLoadtestConfig(
        population=DeploymentConfig(
            n_od_pairs=3,
            mean_extra_sessions=1.0,
            max_sessions_per_od=3,
            video_frames_per_session=frames,
            seed=5,
        )
    )


async def _edge(config, shard_cls=ShardServer, driver_cls=ServeDriver):
    shard = shard_cls(
        shard_id=0,
        cookie_key=config.cookie_key(),
        instance_salt=config.shard_salt(0),
    )
    addr = await shard.start()
    driver = driver_cls(addr, campaign_seed=0)
    await driver.start()
    return shard, driver


def _longest_chain(config):
    population = FleetPopulation(config.population)
    return max((population.chain(i) for i in range(config.population.n_od_pairs)), key=len)


async def _one_session(config, shard, driver):
    planned = _longest_chain(config)[0]
    frames = config.population.video_frames_per_session
    return await asyncio.wait_for(
        driver.run_session(planned, "wira", "od-0", "stream-0", frames), SESSION_TIMEOUT
    )


class _EarlyGetDriver(ServeDriver):
    """Sends its GET right behind the CHLO, as a 0-RTT request would."""

    async def _handshake(self, flow, od_key, chlo):
        self._send_packet(od_key, chlo)
        get = protocol.build_stream_packet(
            flow.connection_id, 0, protocol.REQUEST_STREAM, 0, b"GET /live/stream-0.flv\r\n", fin=True
        )
        self._send_packet(od_key, get)
        return await super()._handshake(flow, od_key, chlo)


class _NotesEarlyPackets(ShardServer):
    """Counts session packets that arrive before the session's timeline."""

    early = 0

    def _on_session_packet(self, packet, addr):
        session = self._sessions.get(packet.connection_id)
        if session is not None and session.shlo_payload is None:
            self.early += 1
        super()._on_session_packet(packet, addr)


class _DropsLastEventOnce(ShardServer):
    """Loses the final datagram of the first replay it sends."""

    dropped = 0

    def _send_event(self, session, event):
        if not self.dropped and event is session.events[-1]:
            self.dropped += 1
            session.packet_number += 1
            return
        super()._send_event(session, event)


class TestEarlyGet:
    def test_get_before_the_shlo_is_replayed_once_the_timeline_exists(self):
        asyncio.run(self._run())

    async def _run(self):
        config = _config()
        shard, driver = await _edge(config, _NotesEarlyPackets, _EarlyGetDriver)
        try:
            outcome = await _one_session(config, shard, driver)
            # The GET did land while the shard's sim was still running.
            assert shard.early >= 1
            assert shard.stats["replays"] == 1
            assert outcome.result.completed == outcome.summary.completed
            assert outcome.result.client_metrics.bytes_received == outcome.summary.stream_length
            assert outcome.retransmit_requests == 0
            assert driver.stats["wire_failures"] == 0
        finally:
            driver.close()
            await shard.close()


class TestLostTail:
    def test_last_datagram_is_repaired_on_the_first_stall_past_the_timeline(self):
        asyncio.run(self._run())

    async def _run(self):
        config = _config()
        shard, driver = await _edge(config, _DropsLastEventOnce)
        try:
            started = time.monotonic()
            outcome = await _one_session(config, shard, driver)
            elapsed = time.monotonic() - started
            assert shard.dropped == 1
            assert outcome.retransmit_requests == 1
            assert driver.stats["retransmit_requests"] == 1
            assert outcome.result.client_metrics.bytes_received == outcome.summary.stream_length
            # One HANDSHAKE_RETRY past the timeline and a stall check,
            # not the SESSION_GRACE deadline (5 s past it).
            assert elapsed < outcome.summary.sim_duration + HANDSHAKE_RETRY + 1.0
        finally:
            driver.close()
            await shard.close()


class TestLoopCost:
    """Per session the edge spawns one task (the shard's sim) and arms at
    most one timer per datagram it replays, plus a few for the
    handshake and the driver's stall checks: nothing per datagram
    received."""

    def test_tasks_per_session_do_not_grow_with_datagrams(self):
        short = asyncio.run(self._count(frames=4))
        long = asyncio.run(self._count(frames=30))
        assert long["datagrams"] > 1.5 * short["datagrams"]
        for counts in (short, long):
            assert counts["tasks"] == counts["sessions"]
            assert counts["timers"] <= counts["datagrams"] + 6 * counts["sessions"]

    async def _count(self, frames):
        config = _config(frames)
        shard, driver = await _edge(config)
        loop = asyncio.get_running_loop()
        counts = {"tasks": 0, "timers": 0}

        def task_factory(loop, coro, **kwargs):
            counts["tasks"] += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        call_at = loop.call_at

        def counting_call_at(*args, **kwargs):
            # ``call_later`` goes through here too.
            counts["timers"] += 1
            return call_at(*args, **kwargs)

        chain = _longest_chain(config)
        loop.set_task_factory(task_factory)
        loop.call_at = counting_call_at
        try:
            for planned in chain:
                await driver.run_session(planned, "wira", "od-0", "stream-0", frames)
        finally:
            del loop.call_at
            loop.set_task_factory(None)
            driver.close()
            await shard.close()
        assert driver.stats["wire_failures"] == 0
        counts["sessions"] = len(chain)
        counts["datagrams"] = shard.stats["datagrams_sent"]
        return counts

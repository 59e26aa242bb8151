"""Isolated per-layer drives: one public function, called in a tight loop.

Diagnostics, not headlines.  A drive answers "did this layer's primitive
get cheaper?" in well under half a second; whether that moved anything a
user sees is for the end-to-end metrics to say.  Each drive is the best
of :data:`REPEATS` short repetitions (the minimum is the estimate least
disturbed by a noisy neighbour), reported per call in the unit its name
ends with.

The scheduler drives use ``post_later``/``call_later`` only — the
pattern ``Link`` and the QUIC timers really produce — and never the
batched kernel's burst lane, which no session path uses.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import time
from typing import Callable, Dict

from bench import OUT

REPEATS = 5

#: Every drive's metric name and unit; :func:`run_all` returns exactly these.
UNITS: Dict[str, str] = {
    "simnet.loop_ns_per_event": "ns",
    "simnet.batch_ns_per_event": "ns",
    "simnet.link_us_per_datagram": "us",
    "quic.varint_ns_per_op": "ns",
    "quic.packet_encode_us": "us",
    "quic.packet_decode_us": "us",
    "quic.transfer_us_per_packet": "us",
    "media.gop_ms": "ms",
    "core.perception_us": "us",
    "core.cookie_us": "us",
    "workload.chain_us": "us",
    "metrics.sketch_add_ns": "ns",
    "metrics.merge_us": "us",
    "fleet.fold_us": "us",
    "fleet.checkpoint_ms": "ms",
    "fleet.snapshot_ms": "ms",
    "experiments.cache_store_ms": "ms",
    "experiments.cache_hit_ms": "ms",
    "serve.envelope_us": "us",
    "serve.ring_lookup_ns": "ns",
    "serve.store_us": "us",
    "serve.udp_echo_us": "us",
    "cdn.session_ms": "ms",
}


def best_of(repetition: Callable[[], float]) -> float:
    """Smallest per-call seconds over :data:`REPEATS` repetitions."""
    return min(repetition() for _ in range(REPEATS))


def per_call(calls: int, body: Callable[[], object]) -> float:
    """Seconds per call of one repetition that makes ``calls`` calls."""
    started = time.perf_counter()
    body()
    return (time.perf_counter() - started) / calls


def _timer_pattern(loop: object, post_later: Callable, call_later: Callable, events: int) -> None:
    """Per-packet chains plus retransmission timers that mostly get cancelled."""
    remaining = [events]
    timer = [None]

    def tick() -> None:
        if remaining[0] <= 0:
            return
        remaining[0] -= 1
        post_later(0.001, tick)
        if remaining[0] % 8 == 0:
            if timer[0] is not None:
                timer[0].cancel()
            timer[0] = call_later(5.0, _nothing)

    for lane in range(8):
        post_later(0.001 * (lane + 1), tick)


def _nothing() -> None:
    pass


def loop_ns_per_event() -> float:
    from repro.simnet.engine import EventLoop

    def repetition() -> float:
        loop = EventLoop()
        _timer_pattern(loop, loop.post_later, loop.call_later, 20_000)
        started = time.perf_counter()
        loop.run()
        return (time.perf_counter() - started) / loop.processed_events

    return 1e9 * best_of(repetition)


def batch_ns_per_event() -> float:
    from repro.simnet.batch import BatchEventLoop

    def repetition() -> float:
        kernel = BatchEventLoop()
        for _ in range(16):  # one wave group's worth of member sessions
            member = kernel.member()
            _timer_pattern(member, member.post_later, member.call_later, 1_250)
        started = time.perf_counter()
        kernel.run()
        return (time.perf_counter() - started) / kernel.processed_events

    return 1e9 * best_of(repetition)


def link_us_per_datagram() -> float:
    from repro.simnet.engine import EventLoop
    from repro.simnet.link import Datagram, Link

    datagrams = 2_000
    payload = bytes(1200)

    def repetition() -> float:
        loop = EventLoop()
        link = Link(
            loop,
            bandwidth_bps=100e6,
            propagation_delay=0.01,
            buffer_bytes=datagrams * len(payload),
            loss_rate=0.01,
            rng=random.Random(1),
            on_deliver=_discard,
        )

        def body() -> None:
            for _ in range(datagrams):
                link.send(Datagram(payload))
            loop.run()

        return per_call(datagrams, body)

    return 1e6 * best_of(repetition)


def _discard(_datagram: object) -> None:
    pass


def varint_ns_per_op() -> float:
    from repro.quic.varint import decode_varint, encode_varint

    # One value per encoded length, weighted like a data packet's header:
    # mostly packet numbers and offsets, rarely an 8-byte value.
    values = [7, 300, 1200, 70_000, 900_000, 5, 16_000, 1 << 40] * 250

    def body() -> None:
        for value in values:
            decode_varint(encode_varint(value))

    return 1e9 * best_of(lambda: per_call(2 * len(values), body))


def _data_packet() -> object:
    from repro.quic.frames import AckFrame, StreamFrame
    from repro.quic.packet import Packet, PacketType

    return Packet(
        PacketType.ONE_RTT,
        bytes(range(8)),
        4321,
        (
            AckFrame(900, 1200, ((890, 900), (870, 880))),
            StreamFrame(0, 1_234_567, bytes(1100)),
        ),
    )


def packet_encode_us() -> float:
    packet = _data_packet()

    def body() -> None:
        for _ in range(2_000):
            packet.encode()  # type: ignore[attr-defined]

    return 1e6 * best_of(lambda: per_call(2_000, body))


def packet_decode_us() -> float:
    from repro.quic.packet import Packet

    wire = _data_packet().encode()  # type: ignore[attr-defined]

    def body() -> None:
        for _ in range(2_000):
            Packet.decode(wire)

    return 1e6 * best_of(lambda: per_call(2_000, body))


def transfer_us_per_packet() -> float:
    """512 kB between two ``Connection``s over a lossless 100 Mbps path."""
    from repro.quic import Connection, HandshakeMode, QuicConfig, Role
    from repro.simnet.engine import EventLoop
    from repro.simnet.path import NetworkConditions, Path

    conditions = NetworkConditions(bandwidth_bps=100e6, rtt=0.02, buffer_bytes=1 << 20)
    response = bytes(512 * 1024)

    def repetition() -> float:
        loop = EventLoop()
        rng = random.Random(3)
        path = Path(loop, conditions, rng=random.Random(rng.getrandbits(32)))
        config = QuicConfig(initial_rtt=0.02)
        server = Connection(
            loop, Role.SERVER, path.send_to_client, config, rng=random.Random(rng.getrandbits(32))
        )
        client = Connection(
            loop,
            Role.CLIENT,
            path.send_to_server,
            config,
            handshake_mode=HandshakeMode.ZERO_RTT,
            rng=random.Random(rng.getrandbits(32)),
        )
        path.deliver_to_server = server.datagram_received
        path.deliver_to_client = client.datagram_received
        received = [0]

        def on_request(stream_id: int, data: bytes, fin: bool) -> None:
            if fin:
                server.send_stream_data(stream_id, response, fin=True)

        def on_response(stream_id: int, data: bytes, fin: bool) -> None:
            received[0] += len(data)

        server.on_stream_data = on_request
        client.on_stream_data = on_response
        started = time.perf_counter()
        client.start()
        client.send_stream_data(0, b"GET /live/stream.flv", fin=True)
        loop.run(max_events=500_000)
        elapsed = time.perf_counter() - started
        if received[0] != len(response):
            raise RuntimeError(f"transfer drive delivered {received[0]} of {len(response)} bytes")
        return elapsed / (server.stats.packets_sent + client.stats.packets_sent)

    return 1e6 * best_of(repetition)


def gop_ms() -> float:
    from repro.media.source import LiveSource, StreamProfile

    profile = StreamProfile(first_frame_target_bytes=43_000, seed=5)

    def body() -> None:
        source = LiveSource(profile)  # fresh: no memoised jitter or complexity
        for index in range(8):
            source.gop(index)

    return 1e3 * best_of(lambda: per_call(8, body))


def perception_us() -> float:
    """Algorithm 1 over the first frame of a 43 kB-first-frame stream."""
    from repro.core.frame_perception import FrameParser
    from repro.media import flv
    from repro.media.source import LiveSource, StreamProfile

    gop = LiveSource(StreamProfile(first_frame_target_bytes=43_000, seed=5)).gop(0)
    wire = flv.mux(gop.frames[:6])
    chunks = [wire[i : i + 1200] for i in range(0, len(wire), 1200)]

    def body() -> None:
        for _ in range(50):
            parser = FrameParser()
            for chunk in chunks:
                if parser.feed(chunk) is not None:
                    break

    return 1e6 * best_of(lambda: per_call(50, body))


def cookie_us() -> float:
    """Seal an Hx_QoS cookie and open its echo."""
    from repro.core.transport_cookie import HxQos, ServerCookieManager

    manager = ServerCookieManager(b"bench-drive-cookie-key-32bytes!!", instance_salt=b"drive")
    qos = HxQos(min_rtt=0.04, max_bw_bps=8e6, timestamp=100.0)

    def body() -> None:
        for _ in range(200):
            sealed = manager.build_frame(qos).decoded_metrics()["sealed"]
            if manager.open_echoed(sealed, now=101.0) is None:
                raise RuntimeError("cookie drive: echoed cookie was rejected")

    return 1e6 * best_of(lambda: per_call(200, body))


def chain_us() -> float:
    from repro.workload.population import DeploymentConfig, FleetPopulation

    population = FleetPopulation(DeploymentConfig(n_od_pairs=200, seed=9))

    def body() -> None:
        for index in range(200):
            population.chain(index)

    return 1e6 * best_of(lambda: per_call(200, body))


def sketch_add_ns() -> float:
    from repro.metrics.sketch import QuantileSketch

    rng = random.Random(11)
    values = [rng.lognormvariate(-2.0, 0.6) for _ in range(5_000)]

    def body() -> None:
        sketch = QuantileSketch()
        for value in values:
            sketch.add(value)

    return 1e9 * best_of(lambda: per_call(len(values), body))


def merge_us() -> float:
    from repro.metrics.sketch import QuantileSketch

    rng = random.Random(12)
    parts = []
    for _ in range(20):
        sketch = QuantileSketch()
        for _ in range(500):
            sketch.add(rng.lognormvariate(-2.0, 0.6))
        parts.append(sketch)

    def body() -> None:
        total = QuantileSketch()
        for part in parts:
            total.merge(part)

    return 1e6 * best_of(lambda: per_call(len(parts), body))


def _fleet_fixture() -> Dict[str, object]:
    """One replayed chain: real outcomes to fold, real payloads to write."""
    from repro.core.config import WiraConfig
    from repro.experiments.common import iter_chain_outcomes
    from repro.fleet import CampaignAggregate
    from repro.workload.population import DeploymentConfig, FleetPopulation

    config = DeploymentConfig(n_od_pairs=1, seed=13, video_frames_per_session=4)
    chain = FleetPopulation(config).chain(0)
    outcomes = list(iter_chain_outcomes("wira", chain, 0, config, WiraConfig()))
    aggregate = CampaignAggregate(("wira",))
    for outcome in outcomes:
        aggregate.fold("wira", outcome.spec, outcome.result)
    return {"outcomes": outcomes, "payload": aggregate.to_json()}


def fleet_drives() -> Dict[str, float]:
    """``fleet.fold_us``, ``fleet.checkpoint_ms``, ``fleet.snapshot_ms``."""
    from repro.fleet import CampaignAggregate, CheckpointState, save_checkpoint, write_snapshot
    from repro.fleet.telemetry import TelemetrySnapshot

    fixture = _fleet_fixture()
    outcomes = fixture["outcomes"]
    payload = fixture["payload"]
    scratch = OUT / "drive-fleet"

    def fold() -> None:
        aggregate = CampaignAggregate(("wira",))
        for _ in range(100):
            for outcome in outcomes:  # type: ignore[attr-defined]
                aggregate.fold("wira", outcome.spec, outcome.result)

    # The shape a 20-chunk campaign rewrites after every chunk.
    state = CheckpointState(
        key="bench", config={}, n_chunks=20, chunks={i: payload for i in range(20)}  # type: ignore[misc]
    )
    snapshot = TelemetrySnapshot.for_chunk("bench", 20, 0, payload, elapsed_s=1.0)  # type: ignore[arg-type]
    try:
        return {
            "fleet.fold_us": 1e6
            * best_of(lambda: per_call(100 * len(outcomes), fold)),  # type: ignore[arg-type]
            "fleet.checkpoint_ms": 1e3
            * best_of(
                lambda: per_call(1, lambda: save_checkpoint(scratch / "checkpoint.json", state))
            ),
            "fleet.snapshot_ms": 1e3
            * best_of(lambda: per_call(1, lambda: write_snapshot(scratch, snapshot))),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def cache_drives() -> Dict[str, float]:
    """``experiments.cache_store_ms`` and ``experiments.cache_hit_ms``."""
    from repro.experiments import runner
    from repro.runtime import settings
    from repro.workload.population import DeploymentConfig

    scratch = OUT / "drive-cache"
    records = runner.run_deployment(
        DeploymentConfig(n_od_pairs=2, seed=14, video_frames_per_session=4),
        ("baseline", "wira"),
        use_cache=False,
        jobs=1,
    )
    try:
        with settings.overridden(cache_dir=scratch):
            store = best_of(lambda: per_call(1, lambda: runner.store_cached("drive", records)))

            def hit() -> None:
                if runner.load_cached("drive") is None:
                    raise RuntimeError("cache drive: stored records did not load")

            load = best_of(lambda: per_call(1, hit))
        return {"experiments.cache_store_ms": 1e3 * store, "experiments.cache_hit_ms": 1e3 * load}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def envelope_us() -> float:
    from repro.serve.wire import EnvelopeKind, decode_envelope, encode_envelope

    payload = _data_packet().encode()  # type: ignore[attr-defined]

    def body() -> None:
        for _ in range(2_000):
            decode_envelope(encode_envelope(EnvelopeKind.DATA, b"od-123", payload))

    return 1e6 * best_of(lambda: per_call(2_000, body))


def ring_lookup_ns() -> float:
    from repro.serve.ring import HashRing

    ring = HashRing(f"shard-{i}" for i in range(4))
    keys = [f"od-{i}" for i in range(2_000)]

    def body() -> None:
        for key in keys:
            ring.node_for(key)

    return 1e9 * best_of(lambda: per_call(len(keys), body))


def store_us() -> float:
    from repro.serve.store import BoundedKeyedStore

    keys = [f"flow-{i}" for i in range(2_000)]

    def body() -> None:
        store: BoundedKeyedStore[int] = BoundedKeyedStore(max_entries=512, ttl=120.0)
        for now, key in enumerate(keys):
            store.put(key, now, float(now))
            store.get(key, float(now))

    return 1e6 * best_of(lambda: per_call(len(keys), body))


def udp_echo_us() -> float:
    """One 1200-byte datagram out and back between two loopback endpoints."""
    from repro.serve.transport import open_endpoint

    round_trips = 300
    payload = bytes(1200)

    async def repetition() -> float:
        loop = asyncio.get_running_loop()
        done: "asyncio.Future[None]" = loop.create_future()
        left = [round_trips]
        echo = await open_endpoint(lambda data, addr: echo.sendto(data, addr))

        def on_reply(data: bytes, addr: object) -> None:
            left[0] -= 1
            if left[0] == 0:
                done.set_result(None)
            else:
                pinger.sendto(payload, echo.address)

        pinger = await open_endpoint(on_reply)
        try:
            started = time.perf_counter()
            pinger.sendto(payload, echo.address)
            await asyncio.wait_for(done, timeout=10.0)
            return (time.perf_counter() - started) / round_trips
        finally:
            pinger.close()
            echo.close()

    async def best() -> float:
        return min([await repetition() for _ in range(REPEATS)])

    return 1e6 * asyncio.run(best())


def session_ms() -> float:
    """One testbed session: 8 Mbps, 3 % loss, 50 ms, 66 kB first frame."""
    from repro.experiments.common import manual_params, run_testbed_session

    params = manual_params(cwnd_bytes=66_000, pacing_bps=8e6)

    def body() -> None:
        if not run_testbed_session(params, seed=15).completed:
            raise RuntimeError("session drive: testbed session did not complete")

    return 1e3 * best_of(lambda: per_call(1, body))


def run_all() -> Dict[str, float]:
    """Every drive, keyed by its per-layer metric name."""
    OUT.mkdir(parents=True, exist_ok=True)
    drives: Dict[str, float] = {
        "simnet.loop_ns_per_event": loop_ns_per_event(),
        "simnet.batch_ns_per_event": batch_ns_per_event(),
        "simnet.link_us_per_datagram": link_us_per_datagram(),
        "quic.varint_ns_per_op": varint_ns_per_op(),
        "quic.packet_encode_us": packet_encode_us(),
        "quic.packet_decode_us": packet_decode_us(),
        "quic.transfer_us_per_packet": transfer_us_per_packet(),
        "media.gop_ms": gop_ms(),
        "core.perception_us": perception_us(),
        "core.cookie_us": cookie_us(),
        "workload.chain_us": chain_us(),
        "metrics.sketch_add_ns": sketch_add_ns(),
        "metrics.merge_us": merge_us(),
        "serve.envelope_us": envelope_us(),
        "serve.ring_lookup_ns": ring_lookup_ns(),
        "serve.store_us": store_us(),
        "serve.udp_echo_us": udp_echo_us(),
        "cdn.session_ms": session_ms(),
    }
    drives.update(fleet_drives())
    drives.update(cache_drives())
    if set(drives) != set(UNITS):
        raise RuntimeError(f"drives and UNITS disagree: {set(drives) ^ set(UNITS)}")
    return drives

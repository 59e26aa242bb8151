"""Edge-case tests for the connection state machine."""

import random
import signal
from contextlib import contextmanager

import pytest

from repro import sanitize
from repro.quic import Connection, HandshakeMode, QuicConfig, Role
from repro.quic.frames import AckFrame, HxQosFrame
from repro.quic.packet import Packet, PacketType
from repro.simnet.engine import EventLoop
from repro.simnet.link import Datagram
from repro.simnet.path import NetworkConditions, Path


def make_pair(loop, conditions=None, mode=HandshakeMode.ZERO_RTT, seed=0, config=None):
    conditions = conditions or NetworkConditions(bandwidth_bps=8e6, rtt=0.05, buffer_bytes=100_000)
    rng = random.Random(seed)
    path = Path(loop, conditions, rng=random.Random(rng.getrandbits(32)))
    config = config or QuicConfig(initial_rtt=0.05)
    server = Connection(loop, Role.SERVER, path.send_to_client, config,
                        rng=random.Random(rng.getrandbits(32)))
    client = Connection(loop, Role.CLIENT, path.send_to_server, config,
                        handshake_mode=mode, rng=random.Random(rng.getrandbits(32)))
    path.deliver_to_server = server.datagram_received
    path.deliver_to_client = client.datagram_received
    return path, server, client


def test_server_cannot_start_handshake():
    loop = EventLoop()
    _, server, _ = make_pair(loop)
    with pytest.raises(ValueError):
        server.start()


def test_multiple_streams_multiplex():
    loop = EventLoop()
    _, server, client = make_pair(loop)
    received = {}

    def on_data(sid, data, fin):
        received.setdefault(sid, bytearray()).extend(data)

    client.on_stream_data = on_data
    server.on_stream_data = lambda sid, d, fin: None
    client.start()
    server.send_stream_data(0, b"a" * 5_000, fin=True)
    server.send_stream_data(4, b"b" * 5_000, fin=True)
    loop.run(max_events=20_000)
    assert bytes(received[0]) == b"a" * 5_000
    assert bytes(received[4]) == b"b" * 5_000


def test_empty_write_then_fin():
    loop = EventLoop()
    _, server, client = make_pair(loop)
    done = []
    client.on_stream_data = lambda sid, d, fin: done.append(fin)
    client.start()
    server.send_stream_data(0, b"", fin=True)
    loop.run(max_events=10_000)
    assert True in done


def test_duplicate_datagram_ignored():
    loop = EventLoop()
    path, server, client = make_pair(loop)
    captured = []
    original = client.datagram_received

    def tee(datagram):
        captured.append(datagram)
        original(datagram)

    path.deliver_to_client = tee
    received = bytearray()
    client.on_stream_data = lambda sid, d, fin: received.extend(d)
    client.start()
    server.send_stream_data(0, b"payload-bytes", fin=True)
    loop.run(max_events=10_000)
    before = len(received)
    for datagram in list(captured):
        original(datagram)  # replay everything
    loop.run(max_events=10_000)
    assert len(received) == before
    assert client.stats.duplicate_packets >= 1


def test_reordered_delivery_reassembles():
    loop = EventLoop()
    path, server, client = make_pair(loop)
    # Buffer server->client datagrams and deliver them in reverse order.
    buffered = []
    path.deliver_to_client = buffered.append
    received = bytearray()
    client.on_stream_data = lambda sid, d, fin: received.extend(d)
    client.start()
    loop.run_until(0.2, max_events=5_000)
    server.send_stream_data(0, bytes(range(256)) * 20, fin=True)
    loop.run_until(0.4, max_events=5_000)
    for datagram in reversed(buffered):
        client.datagram_received(datagram)
    loop.run_until(2.0, max_events=20_000)
    assert bytes(received) == bytes(range(256)) * 20


def test_one_rtt_client_defers_request_data():
    loop = EventLoop()
    conditions = NetworkConditions(bandwidth_bps=8e6, rtt=0.1, buffer_bytes=100_000)
    path, server, client = make_pair(loop, conditions, mode=HandshakeMode.ONE_RTT)
    request_arrival = []
    server.on_stream_data = lambda sid, d, fin: request_arrival.append(loop.now)
    client.start()
    client.send_stream_data(0, b"GET /x", fin=True)
    loop.run(max_events=10_000)
    # Request cannot arrive before the REJ round trip completes (~1.5 RTT
    # after start: CHLO->REJ is 1 RTT, then request takes 0.5 RTT).
    assert request_arrival and request_arrival[0] >= 0.145


def test_hx_qos_retransmitted_after_loss():
    loop = EventLoop()
    conditions = NetworkConditions(
        bandwidth_bps=8e6, rtt=0.05, loss_rate=0.4, buffer_bytes=100_000
    )
    path, server, client = make_pair(loop, conditions, seed=9)
    got = []
    client.on_hx_qos = got.append
    server.on_stream_data = lambda sid, d, fin: None
    client.start()
    client.send_stream_data(0, b"GET", fin=True)
    loop.run(max_events=5_000)
    frame = HxQosFrame.from_metrics(0.05, 8e6, 1.0)
    for _ in range(3):  # a few tries through 40% loss
        server.send_hx_qos(frame)
    loop.run(max_events=100_000)
    assert got, "Hx_QoS frames must eventually arrive despite loss"


def test_pto_recovers_fully_lost_flight():
    loop = EventLoop()
    conditions = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, buffer_bytes=100_000)
    path, server, client = make_pair(loop, conditions)
    received = bytearray()
    client.on_stream_data = lambda sid, d, fin: received.extend(d)
    client.start()
    loop.run(max_events=5_000)
    # Blackhole the forward path for the entire first flight, then heal.
    path.forward.loss_rate = 0.999999999  # drop everything admitted
    server.send_stream_data(0, b"z" * 3_000, fin=True)
    loop.run_until(loop.now + 0.2, max_events=10_000)
    path.forward.loss_rate = 0.0
    loop.run(max_events=100_000)
    assert bytes(received) == b"z" * 3_000
    assert server.stats.pto_count >= 1 or server.stats.packets_lost >= 1


def test_stats_snapshot_is_immutable_copy():
    loop = EventLoop()
    _, server, client = make_pair(loop)
    client.start()
    loop.run(max_events=1_000)
    snap = server.stats.snapshot()
    before = snap.packets_sent
    server.send_stream_data(0, b"x" * 10_000, fin=True)
    loop.run(max_events=10_000)
    assert snap.packets_sent == before
    assert server.stats.packets_sent > before


@contextmanager
def hard_time_limit(seconds):
    """Fail the test, rather than hang the suite, past ``seconds`` of wall time."""

    def expired(signum, frame):
        raise TimeoutError(f"exceeded the {seconds}s limit")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("span", [10**7, 2**40])
def test_ack_spanning_billions_of_unsent_numbers_costs_nothing(span):
    """One ACK frame of a few bytes claiming ``0..span`` must not make the
    endpoint enumerate the span (seconds of CPU at 10^7, ``MemoryError``
    out of the event loop at 2^40): garbage input never hangs or kills
    an endpoint.  Nothing was sent, so nothing is acknowledged."""
    loop = EventLoop()
    server = Connection(loop, Role.SERVER, lambda datagram: True)
    hostile = Packet(
        PacketType.ONE_RTT, server.connection_id, 0, (AckFrame(span, 0, ((0, span),)),)
    ).encode()
    assert len(hostile) < 32
    # The sanitizer would (rightly) report an ACK for never-sent packets;
    # this pins what the transport itself does with one.
    with sanitize.suppressed(), hard_time_limit(2.0):
        server.datagram_received(Datagram(hostile))
    assert server.stats.packets_received == 1
    assert server.stats.undecodable_packets == 0
    assert server.stats.packets_lost == 0 and server.stats.packets_sent == 0
    assert server.bytes_in_flight == 0
    assert server.loss_recovery.largest_acked == span

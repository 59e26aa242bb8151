"""RFC 9002 clauses the transport keeps, one test per clause.

A server sends a response over a simulated path whose two directions a
test can cut for a while (:meth:`Wire.cut`); the wire records every
packet the server sends, with the server's bytes in flight just before
it left and its congestion window, and every PTO with its probes.
"""

import random
from typing import List, NamedTuple, Tuple

import pytest

from repro.quic import Connection, QuicConfig, Role
from repro.quic.frames import CryptoFrame, PingFrame, StreamFrame
from repro.quic.packet import Packet
from repro.quic.sent_packet import SentPacket
from repro.simnet.engine import EventLoop
from repro.simnet.link import Datagram
from repro.simnet.path import NetworkConditions, Path

PATH = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, buffer_bytes=100_000)


class Sent(NamedTuple):
    time: float
    packet: Packet
    in_flight: int  # before the packet left
    cwnd: int

    @property
    def past_cwnd(self) -> bool:
        return self.in_flight >= self.cwnd


class Pto(NamedTuple):
    time: float
    probes: List[SentPacket]
    control_queue: int  # frames the server still held queued


class Wire:
    """A client and a server over ``PATH``; both directions drop all
    while the wire is cut."""

    def __init__(self, seed: int = 0, loss_rate: float = 0.0) -> None:
        self.loop = EventLoop()
        rng = random.Random(seed)
        conditions = NetworkConditions(
            bandwidth_bps=PATH.bandwidth_bps,
            rtt=PATH.rtt,
            buffer_bytes=PATH.buffer_bytes,
            loss_rate=loss_rate,
        )
        self._path = Path(self.loop, conditions, rng=random.Random(rng.getrandbits(32)))
        config = QuicConfig(initial_rtt=0.05)
        self.server = Connection(
            self.loop, Role.SERVER, self._record, config, rng=random.Random(rng.getrandbits(32))
        )
        self.client = Connection(
            self.loop, Role.CLIENT, self._path.send_to_server, config,
            rng=random.Random(rng.getrandbits(32)),
        )
        self._path.deliver_to_server = self._unless_cut(self.server)
        self._path.deliver_to_client = self._unless_cut(self.client)
        self.up = True
        self.sent: List[Sent] = []
        self.ptos: List[Pto] = []
        recovery = self.server.loss_recovery
        fire = recovery.on_pto_fired

        def on_pto_fired(now: float) -> List[SentPacket]:
            probes = fire(now)
            self.ptos.append(Pto(now, probes, len(self.server._control_queue)))
            return probes

        recovery.on_pto_fired = on_pto_fired

    def _unless_cut(self, endpoint: Connection):
        def deliver(datagram: Datagram) -> None:
            if self.up:
                endpoint.datagram_received(datagram)

        return deliver

    def _record(self, datagram: Datagram) -> bool:
        server = self.server
        packet = datagram.packet
        assert isinstance(packet, Packet)
        before = server.bytes_in_flight - (datagram.size if packet.ack_eliciting() else 0)
        self.sent.append(Sent(self.loop.now, packet, before, server.cc.congestion_window))
        return self.up and self._path.send_to_client(datagram)

    def cut(self, start: float, duration: float) -> None:
        self.loop.call_at(start, setattr, self, "up", False)
        self.loop.call_at(start + duration, setattr, self, "up", True)

    def transfer(self, size: int) -> List[float]:
        """Run a ``size``-byte response; returns when it completed."""
        done: List[float] = []

        def on_request(stream_id: int, data: bytes, fin: bool) -> None:
            if fin:
                self.server.send_stream_data(stream_id, b"x" * size, fin=True)

        def on_response(stream_id: int, data: bytes, fin: bool) -> None:
            if fin:
                done.append(self.loop.now)

        self.server.on_stream_data = on_request
        self.client.on_stream_data = on_response
        self.client.start()
        self.client.send_stream_data(0, b"GET", fin=True)
        self.loop.run(max_events=500_000)
        return done

    def after_each_pto(self) -> List[Tuple[Pto, List[Sent]]]:
        """Each PTO with the packets the server sent until the next one."""
        times = [pto.time for pto in self.ptos] + [float("inf")]
        return [
            (pto, [s for s in self.sent if times[i] <= s.time < times[i + 1]])
            for i, pto in enumerate(self.ptos)
        ]


def stream_ranges(frames) -> List[Tuple[int, int]]:
    return [(f.offset, len(f.data)) for f in frames if isinstance(f, StreamFrame)]


def ptos_in_an_outage() -> List[Tuple[Pto, List[Sent]]]:
    """400 kB with the wire cut from 0.3 s to 1.3 s: the window is full
    when the first PTO fires, and two more fire before the wire is back.
    Those three, each with what the server sent after it."""
    wire = Wire()
    wire.cut(0.3, 1.0)
    assert wire.transfer(400_000)
    in_outage = [(pto, sent) for pto, sent in wire.after_each_pto() if pto.time < 1.3]
    assert len(in_outage) == 3
    return in_outage


def test_section_7_5_probes_leave_past_a_full_congestion_window():
    """"Probe packets MUST NOT be blocked by the congestion controller."""
    for pto, sent in ptos_in_an_outage():
        assert sent, f"nothing left after the PTO at {pto.time:.3f} s"
        assert all(s.past_cwnd for s in sent)


def test_section_6_2_4_each_pto_sends_one_or_two_probes_of_the_oldest_data():
    """A PTO sends one or two ack-eliciting packets, and they carry the
    data of the oldest unacknowledged packets again."""
    for pto, sent in ptos_in_an_outage():
        assert 1 <= len(sent) <= 2
        assert all(s.packet.ack_eliciting() for s in sent)
        assert [r for s in sent for r in stream_ranges(s.packet.frames)] == [
            r for probe in pto.probes for r in stream_ranges(probe.frames)
        ]


def test_a_pto_without_data_sends_exactly_one_ping():
    """Nothing to carry again: each PTO sends one PING, and no frame
    piles up in the control queue from one PTO to the next."""
    wire = Wire()
    assert wire.transfer(20_000)
    # Everything is acknowledged; one PING goes out as the wire is cut.
    server = wire.server
    wire.cut(wire.loop.now, 5.0)
    server._control_queue.append(PingFrame())
    server._pump()
    wire.loop.run(max_events=10_000)
    assert len(wire.ptos) >= 3
    for pto, sent in wire.after_each_pto():
        assert pto.control_queue == 0
        assert len(sent) == 1
        frames = sent[0].packet.frames
        assert any(isinstance(f, PingFrame) for f in frames)
        assert not stream_ranges(frames)
    assert server._control_queue == []


@pytest.mark.parametrize("seed", range(4))
def test_packets_past_the_window_never_outnumber_the_probe_credit(seed):
    """Between one PTO and the next, the packets that leave past the
    congestion window are at most the probes that PTO granted, and
    before the first PTO there are none.  Handshake packets always
    leave, so they are not counted."""
    wire = Wire(seed=seed, loss_rate=0.02)
    for start, duration in ((0.25, 0.2), (0.6, 0.2), (1.0, 0.5)):
        wire.cut(start, duration)
    assert wire.transfer(300_000)
    first = wire.ptos[0].time

    def past(sent):
        return [
            s for s in sent
            if s.past_cwnd and not any(isinstance(f, CryptoFrame) for f in s.packet.frames)
        ]

    assert not past(s for s in wire.sent if s.time < first)
    spent = 0
    for pto, sent in wire.after_each_pto():
        assert len(past(sent)) <= max(1, len(pto.probes))
        spent += len(past(sent))
    assert spent

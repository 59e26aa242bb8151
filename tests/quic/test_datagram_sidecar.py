"""The sender's parsed packet rides beside its bytes — checked, not trusted.

``Connection._send_packet`` hands the :class:`Packet` it serialised to
the :class:`Datagram` carrying the bytes, and an in-process receiver uses
it instead of parsing the bytes again.  The bytes stay authoritative, so
everything here pins the one property the shortcut rests on — the
sidecar *is* ``Packet.decode(payload)`` — and that the sanitizer proves
it on every delivery.
"""

import random

import pytest

from repro import obs, sanitize
from repro.core.config import WiraConfig
from repro.core.schemes import BASELINE, WIRA
from repro.experiments import common
from repro.quic import Connection, HandshakeMode, QuicConfig, Role
from repro.quic.cc import CONTROLLERS
from repro.quic.frames import PingFrame
from repro.quic.packet import Packet, PacketType
from repro.sanitize import SanitizerError
from repro.simnet.engine import EventLoop
from repro.simnet.link import Datagram
from repro.simnet.path import NetworkConditions, Path
from repro.workload.population import Deployment, DeploymentConfig

LOSSY = NetworkConditions(
    bandwidth_bps=8e6, rtt=0.05, loss_rate=0.05, buffer_bytes=25_000, reverse_loss_rate=0.02
)


def tapped_pair(loop, controller, mode, seed):
    """A connected pair whose two send hooks record every datagram."""
    rng = random.Random(seed)
    path = Path(loop, LOSSY, rng=random.Random(rng.getrandbits(32)))
    config = QuicConfig(initial_rtt=0.05, congestion_controller=controller)
    sent = []

    def tap(send):
        def sender(datagram):
            sent.append(datagram)
            return send(datagram)

        return sender

    server = Connection(loop, Role.SERVER, tap(path.send_to_client), config,
                        rng=random.Random(rng.getrandbits(32)))
    client = Connection(loop, Role.CLIENT, tap(path.send_to_server), config,
                        handshake_mode=mode, rng=random.Random(rng.getrandbits(32)))
    path.deliver_to_server = server.datagram_received
    path.deliver_to_client = client.datagram_received
    return server, client, sent


@pytest.mark.parametrize("mode", [HandshakeMode.ZERO_RTT, HandshakeMode.ONE_RTT])
@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
def test_every_sent_datagram_carries_the_parse_of_its_bytes(controller, mode):
    """Handshake, data, piggy-backed and bare ACKs, multi-range ACKs
    after loss, retransmissions, Hx_QoS and PTO probes — whatever a lossy
    transfer sends, decoding the bytes gives the packet beside them."""
    loop = EventLoop()
    server, client, sent = tapped_pair(loop, controller, mode, seed=11)
    payload = bytes(range(256)) * 240
    received = bytearray()
    client.on_stream_data = lambda sid, data, fin: received.extend(data)
    server.on_stream_data = lambda sid, data, fin: None
    server.on_client_hello = lambda tags, rtt: server.send_stream_data(0, payload, fin=True)
    client.start()
    client.send_stream_data(0, b"GET /live", fin=True)
    loop.run(max_events=400_000)
    assert bytes(received) == payload
    assert server.stats.packets_lost > 0  # recovery traffic was exercised
    assert len(sent) == server.stats.packets_sent + client.stats.packets_sent
    for datagram in sent:
        assert datagram.packet is not None
        assert Packet.decode(datagram.payload) == datagram.packet


def _ping(connection_id, packet_number):
    return Packet(PacketType.ONE_RTT, connection_id, packet_number, (PingFrame(),))


def test_sanitizer_rejects_a_sidecar_that_disagrees_with_its_bytes():
    loop = EventLoop()
    server = Connection(loop, Role.SERVER, lambda datagram: True)
    cid = server.connection_id
    honest = Datagram(_ping(cid, 0).encode(), packet=_ping(cid, 0))
    forged = Datagram(_ping(cid, 1).encode(), packet=_ping(cid, 2))
    garbage = Datagram(b"\x00" * 12, packet=_ping(cid, 3))
    with sanitize.sanitized() as san:
        server.datagram_received(honest)
        for datagram in (forged, garbage):
            with pytest.raises(SanitizerError) as excinfo:
                server.datagram_received(datagram)
            assert excinfo.value.invariant == "datagram_parse"
    assert san.checks_run["datagram_parse"] == 3
    assert server.stats.packets_received == 1


class TestPacketWorkIsPaidOnce:
    """Exact-count tripwire on the per-packet path.  Call counts repeat
    exactly (wall time on a shared host does not): a receiver in the same
    process never parses, the sanitizer parses every delivery, and
    ack-elicitation is asked once per side."""

    CONFIG = DeploymentConfig(n_od_pairs=3, seed=23, video_frames_per_session=6)

    @pytest.fixture(autouse=True)
    def untraced(self, monkeypatch):
        monkeypatch.setattr(obs, "ACTIVE", None)

    def replay(self, monkeypatch):
        """Replay the pinned chain under both schemes; returns call
        counts and the connections' own packet counters."""
        calls = {"decode": 0, "ack_eliciting": 0}
        connections = []
        decode = Packet.decode.__func__
        ack_eliciting = Packet.ack_eliciting
        init = Connection.__init__

        def counting_decode(cls, data):
            calls["decode"] += 1
            return decode(cls, data)

        def counting_ack_eliciting(self):
            calls["ack_eliciting"] += 1
            return ack_eliciting(self)

        def recording_init(self, *args, **kwargs):
            connections.append(self)
            init(self, *args, **kwargs)

        chains = Deployment(self.CONFIG).generate()
        index = max(range(len(chains)), key=lambda i: len(chains[i]))
        with monkeypatch.context() as patch:
            patch.setattr(Packet, "decode", classmethod(counting_decode))
            patch.setattr(Packet, "ack_eliciting", counting_ack_eliciting)
            patch.setattr(Connection, "__init__", recording_init)
            for scheme in (BASELINE, WIRA):
                outcomes = list(
                    common.iter_chain_outcomes(
                        scheme, chains[index], index, self.CONFIG, WiraConfig()
                    )
                )
                assert all(outcome.result.completed for outcome in outcomes)
        stats = [connection.stats for connection in connections]
        assert not any(s.corrupt_packets or s.undecodable_packets for s in stats)
        calls["sent"] = sum(s.packets_sent for s in stats)
        calls["received"] = sum(s.packets_received for s in stats)
        return calls

    def test_plain_replay_never_parses(self, monkeypatch):
        with sanitize.suppressed():
            calls = self.replay(monkeypatch)
        assert calls["received"] > 500
        assert calls["decode"] == 0
        assert calls["ack_eliciting"] == calls["sent"] + calls["received"]
        assert calls["ack_eliciting"] <= 2 * calls["sent"]

    def test_sanitized_replay_parses_every_delivery(self, monkeypatch):
        with sanitize.sanitized() as san:
            calls = self.replay(monkeypatch)
        assert calls["decode"] == calls["received"] == san.checks_run["datagram_parse"]

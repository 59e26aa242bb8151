"""Truncated-datagram handling: serve parity with the sim discipline.

The serve stack promises the same graceful degradation the simulator
models in :meth:`repro.quic.connection.Connection.datagram_received`:
malformed wire bytes are dropped and counted, never crash the endpoint,
and never partially apply.  These tests pin that parity at two layers:

* codec layer — for every truncation prefix of a corpus of valid
  packets, :func:`repro.serve.protocol.parse_data_payload` accepts or
  raises exactly when the simulator's ``Packet.decode`` does;
* socket layer — a live :class:`~repro.serve.shard.ShardServer` fed
  truncated datagrams over a real UDP socket counts each drop and keeps
  answering control requests.
"""

import asyncio
import hashlib
import random

from repro.quic import Connection, QuicConfig, Role
from repro.quic.frames import HxQosFrame
from repro.quic.packet import Packet
from repro.serve import protocol
from repro.serve.protocol import ServeSpec, ShloSummary
from repro.serve.wire import EnvelopeKind, encode_envelope
from repro.simnet.engine import EventLoop
from repro.simnet.link import Datagram

CID = bytes(range(8))


def _spec() -> ServeSpec:
    from repro.core.schemes import WIRA
    from repro.media.source import StreamProfile
    from repro.quic.connection import HandshakeMode
    from repro.simnet.path import NetworkConditions

    return ServeSpec(
        od_key="od-0",
        stream_name="stream-0",
        scheme=WIRA,
        handshake_mode=HandshakeMode.ZERO_RTT,
        epoch=1_000.0,
        seed=7,
        session_index=0,
        target_video_frames=4,
        conditions=NetworkConditions(bandwidth_bps=8_000_000.0, rtt=0.05),
        profile=StreamProfile(),
    )


def _corpus():
    """Valid wire payloads covering every serve packet shape."""
    summary = ShloSummary(
        completed=True,
        used_cookie=True,
        cookie_pushed=True,
        sim_ffct=0.412,
        stream_length=197_032,
        sim_duration=2.5,
        ff_data_packets_sent=31,
        ff_data_packets_lost=2,
        frames_delivered=6,
        shard_id=1,
    )
    return [
        protocol.build_chlo_packet(CID, b"\x01" * 40, _spec()).encode(),
        protocol.build_shlo_packet(CID, 1, summary).encode(),
        protocol.build_stream_packet(CID, 2, 0, 0, bytes(range(256)) * 3).encode(),
        protocol.build_stream_packet(
            CID, 3, protocol.CONTROL_STREAM, 512, protocol.build_resend_request(512), fin=True
        ).encode(),
        protocol.build_hx_qos_packet(
            CID, 4, HxQosFrame.from_metrics(0.05, 8e6, 1_000.0, sealed=b"\x02" * 60)
        ).encode(),
    ]


def _sim_rejects(blob: bytes) -> bool:
    try:
        Packet.decode(blob)
    except ValueError:
        return True
    return False


def _serve_rejects(blob: bytes) -> bool:
    try:
        protocol.parse_data_payload(blob)
    except ValueError:
        return True
    return False


class TestCodecParity:
    def test_full_datagrams_accepted_by_both(self):
        for blob in _corpus():
            assert not _sim_rejects(blob)
            assert not _serve_rejects(blob)

    def test_every_truncation_classified_like_the_sim(self):
        """serve accept/reject == sim accept/reject at every cut point."""
        for blob in _corpus():
            for cut in range(len(blob)):
                prefix = blob[:cut]
                assert _serve_rejects(prefix) == _sim_rejects(prefix), (
                    f"classification diverged at cut {cut}/{len(blob)}"
                )

    def test_truncation_is_actually_exercised(self):
        """Each corpus entry must have rejecting cuts — otherwise the
        parity loop above proves nothing."""
        for blob in _corpus():
            rejecting = sum(1 for cut in range(len(blob)) if _sim_rejects(blob[:cut]))
            assert rejecting > len(blob) // 4


class TestSimConnectionDiscipline:
    def test_undecodable_counted_and_endpoint_survives(self):
        """The sim endpoint drops exactly the codec-rejected prefixes."""
        loop = EventLoop()
        sent = []
        server = Connection(
            loop,
            Role.SERVER,
            sent.append,
            QuicConfig(initial_rtt=0.05),
            rng=random.Random(0),
        )
        # Frame-bearing 1-RTT packets only: their sole undecodable path
        # is Packet.decode, the predictor used below (handshake packets
        # add a second drop path inside the crypto parser).
        corpus = [
            blob
            for blob in _corpus()
            if Packet.decode(blob).packet_type.name == "ONE_RTT"
        ]
        expected = 0
        for blob in corpus:
            for cut in range(len(blob) + 1):
                prefix = blob[:cut]
                if _sim_rejects(prefix):
                    expected += 1
                server.datagram_received(Datagram(payload=prefix))
        assert expected > 0
        assert server.stats.undecodable_packets == expected
        # Still alive: a pristine packet is received, not dropped.
        before = server.stats.packets_received
        server.datagram_received(Datagram(payload=corpus[0]))
        assert server.stats.packets_received == before + 1


class TestLiveShardSurvivesGarbage:
    def test_shard_counts_drops_and_keeps_answering(self):
        asyncio.run(self._run())

    async def _run(self):
        from repro.serve.loadtest import ControlClient
        from repro.serve.shard import ShardServer

        shard = ShardServer(
            shard_id=0,
            cookie_key=hashlib.sha256(b"truncation-test-key").digest(),
            instance_salt=b"\x00" * 16,
        )
        addr = await shard.start()
        control = ControlClient()
        await control.start()
        try:
            assert (await control.request(addr, "stats"))["op"] == "stats"
            before = await self._undecodable(control, addr)

            blob = protocol.build_stream_packet(
                CID, 1, 0, 0, bytes(range(200))
            ).encode()
            cuts = [c for c in range(len(blob)) if _sim_rejects(blob[:c])]
            assert control.endpoint is not None
            for cut in cuts:
                control.endpoint.sendto(
                    encode_envelope(EnvelopeKind.DATA, b"od-0", blob[:cut]), addr
                )
            # Raw garbage that is not even an envelope.
            control.endpoint.sendto(b"\x00\x01\x02", addr)
            expected = before + len(cuts) + 1

            deadline = asyncio.get_running_loop().time() + 5.0
            count = before
            while count < expected:
                assert asyncio.get_running_loop().time() < deadline, (
                    f"undecodable stuck at {count}, want {expected}"
                )
                await asyncio.sleep(0.05)
                count = await self._undecodable(control, addr)
            assert count == expected
            # The endpoint is unharmed: control plane still answers.
            assert (await control.request(addr, "stats"))["shard_id"] == 0
        finally:
            control.close()
            await shard.close()

    @staticmethod
    async def _undecodable(control, addr) -> int:
        reply = await control.request(addr, "stats")
        stats = reply["stats"]
        assert isinstance(stats, dict)
        return int(stats["undecodable"])

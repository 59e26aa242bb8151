"""The shard's sim oracle: refused specs are garbage, tracing is passive.

Both drive :class:`~repro.serve.shard.ShardServer` without a socket:
the CHLO goes straight into ``_on_chlo`` and the SHLO the shard would
send is read off the session it leaves behind.
"""

import asyncio
import hashlib
import json
from dataclasses import asdict

import pytest

from repro import obs
from repro.core.schemes import WIRA
from repro.media.source import StreamProfile
from repro.quic.connection import HandshakeMode
from repro.quic.frames import CryptoFrame
from repro.quic.handshake import chlo
from repro.quic.packet import Packet, PacketType
from repro.serve import protocol
from repro.serve.shard import ShardServer
from repro.serve.wire import decode_envelope
from repro.simnet.path import NetworkConditions

CID = bytes(range(8))
PEER = ("127.0.0.1", 9)

SPEC = protocol.ServeSpec(
    od_key="od-0",
    stream_name="stream-0",
    scheme=WIRA,
    handshake_mode=HandshakeMode.ZERO_RTT,
    epoch=1_000.0,
    seed=3,
    session_index=0,
    target_video_frames=4,
    conditions=NetworkConditions(bandwidth_bps=8_000_000.0, rtt=0.05),
    profile=StreamProfile(seed=3),
)


def _shard():
    shard = ShardServer(
        shard_id=0,
        cookie_key=hashlib.sha256(b"shard-test-key").digest(),
        instance_salt=b"\x00" * 16,
    )
    shard._send = lambda data, addr: None  # no socket: the session keeps the SHLO
    return shard


def _chlo_packet(wspc: bytes) -> Packet:
    message = chlo(full=True, extra_tags={protocol.TAG_WSPC: wspc})
    return Packet(
        PacketType.INITIAL, CID, 0, (CryptoFrame(offset=0, data=message.encode()),)
    )


async def _serve_chlo(shard, wspc: bytes) -> None:
    shard._on_chlo(_chlo_packet(wspc), SPEC.od_key.encode(), PEER)
    # Re-raises whatever escaped the session task.
    await asyncio.gather(*shard._tasks)


def _with(**changes) -> bytes:
    payload = json.loads(SPEC.to_json_bytes())
    payload.update(changes)
    return json.dumps(payload).encode()


class TestRefusedSpecs:
    """A spec that parses but that the shard cannot simulate is counted
    ``undecodable`` like any other garbage, and its flow is released."""

    @pytest.mark.parametrize(
        "wspc",
        [
            _with(frames=0),
            _with(scheme='wira?{"cc":"nope"}'),
            _with(scheme='adaptive?{"q":0.0}'),
            _with(scheme="not_a_scheme"),
            _with(profile=dict(asdict(SPEC.profile), audio_fps=0.0)),
            _with(profile=dict(asdict(SPEC.profile), gop_seconds=1e308)),
        ],
        ids=[
            "no-frames",
            "wira-params",
            "adaptive-params",
            "unregistered",
            "zero-audio-rate",
            "overflowing-gop",
        ],
    )
    def test_counted_and_swept(self, wspc):
        shard = _shard()
        asyncio.run(_serve_chlo(shard, wspc))
        assert shard.stats["undecodable"] == 1
        assert shard.stats["sims_run"] == 0
        shard._sweep(1e9)
        assert shard._sessions == {}


class TestControlOps:
    """The shard answers ``stats`` and ``shutdown``, the two ops the load
    test sends; any other op is garbage."""

    @pytest.mark.parametrize("op", ["ping", "", "STATS"])
    def test_unknown_op_is_undecodable_and_unanswered(self, op):
        shard = _shard()
        sent = []
        shard._send = lambda data, addr: sent.append(data)
        shard._on_control(json.dumps({"op": op, "req": 1}).encode(), PEER)
        assert shard.stats["undecodable"] == 1
        assert sent == []


class TestTracingIsPassive:
    def test_traced_shard_answers_like_an_untraced_one(self):
        """Same loop, same clock: the SHLO (``SDUR`` included) and the
        replay timeline do not depend on an active trace bus."""
        plain = self._answer()
        with obs.tracing() as bus:
            traced = self._answer()
        assert traced == plain
        assert bus.counts  # the traced run did emit

    @staticmethod
    def _answer():
        shard = _shard()
        asyncio.run(_serve_chlo(shard, SPEC.to_json_bytes()))
        session = shard._sessions[CID]
        assert session.shlo_payload is not None
        packet = protocol.parse_data_payload(decode_envelope(session.shlo_payload).payload)
        message = protocol.decode_handshake_packet(packet)
        assert message is not None
        summary = protocol.ShloSummary.from_tags(dict(message.tags))
        return summary, session.events

"""The proxy-shard worker process.

A shard terminates serve sessions on a real UDP socket.  Per session it
runs the **simulator as its timing oracle**: the CHLO's ``WSPC`` spec
reconstructs the exact :class:`~repro.cdn.session.SessionSpec` the fleet
engine would replay, the echoed HQST cookie seeds a synthetic client
store (so the simulated server sees the same cookie hit/miss the wire
produced), and delivery taps capture *when* the simulated client
received every stream chunk and pushed cookie.  The shard then replays
that timeline over the socket at wall-clock offsets anchored at the
client's GET — so the socket-measured FFCT equals the simulated FFCT up
to scheduling jitter, and any wire-level cookie or codec bug shows up as
a cookie miss and a diverging distribution.

Each OD pair's world (origin, live source) is keyed by ``od_key`` and
shared by every scheme replaying that pair.  It is a *memo*, not state:
the live source is a deterministic function of ``(StreamProfile,
gop_index)``, so a world idle past :data:`SESSION_LINGER` is evicted in
the session sweep and rebuilt on the pair's next session with identical
results — the store stays bounded by the pairs recently active.

The shard's :class:`~repro.core.transport_cookie.ServerCookieManager` is
**per process** and salted with the shard id: N shards share the
deployment cookie key, and without the salt every shard would reuse the
nonce sequence starting at 0 (the two-time-pad regression this PR
fixes).

Run as a worker: ``python -m repro.serve.shard --shard-id 0
--cookie-key-hex … --salt-hex … --ready-file …``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Coroutine, Dict, List, Optional, Set, Tuple

from repro import obs as _obs
from repro.cdn.origin import Origin
from repro.cdn.session import _SLICE_EVENTS, SessionResult, SessionSpec, StreamingSession
from repro.core.config import WiraConfig
from repro.core.transport_cookie import ClientCookieStore, ServerCookieManager, decode_hqst
from repro.core.cookie_crypto import CookieError
from repro.quic.frames import HxQosFrame
from repro.quic.handshake import TAG_HQST, HandshakeMessageType
from repro.quic.packet import Packet, PacketType
from repro.serve import protocol
from repro.serve.transport import Address, UdpEndpoint, open_endpoint
from repro.simnet.engine import EventLoop as SimLoop
from repro.serve.wire import (
    MAX_CHUNK_BYTES,
    EnvelopeError,
    EnvelopeKind,
    decode_envelope,
    encode_envelope,
)

#: Delivery-tap entries closer together than this replay as one
#: datagram; the bound on the timing distortion coalescing introduces.
COALESCE_GAP = 0.002

#: Idle seconds after which finished session state, and the world of
#: an OD pair with no session since, is swept.
SESSION_LINGER = 30.0


@dataclass
class _ReplayEvent:
    """One scheduled send of the replay timeline."""

    at: float  # seconds relative to the GET anchor (sim clock)
    data: bytes = b""
    offset: int = 0
    fin: bool = False
    hx_frame: Optional[HxQosFrame] = None


@dataclass
class _ChainState:
    origin: Origin
    stream_name: str
    last_active: float = 0.0


@dataclass
class _ShardSession:
    connection_id: bytes
    peer: Address
    od_key: str
    last_active: float = 0.0
    shlo_payload: Optional[bytes] = None
    events: List[_ReplayEvent] = field(default_factory=list)
    replay_started: bool = False
    replay_anchor: float = 0.0
    sent_through: int = 0  # index into events already sent
    packet_number: int = 1
    done: bool = False


class ShardServer:
    """One shard worker: socket front-end plus sim-oracle back-end."""

    def __init__(
        self,
        shard_id: int,
        cookie_key: bytes,
        instance_salt: bytes,
        wira_config: Optional[WiraConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.wira = wira_config or WiraConfig()
        self.cookie_manager = ServerCookieManager(
            cookie_key,
            staleness_delta=self.wira.staleness_delta,
            instance_salt=instance_salt,
        )
        self.endpoint: Optional[UdpEndpoint] = None
        self._chains: Dict[str, _ChainState] = {}
        self._sessions: Dict[bytes, _ShardSession] = {}
        # Running tasks only: each drops itself when it finishes, so the
        # set does not grow with the sessions served.
        self._tasks: Set[asyncio.Task[None]] = set()
        self._stopped = asyncio.Event()
        # When a trace bus is active, sim runs serialize under this lock
        # so per-session trace scopes never interleave.
        self._sim_lock = asyncio.Lock()
        self.stats: Dict[str, int] = {
            "sessions": 0,
            "sims_run": 0,
            "replays": 0,
            "retransmits": 0,
            "undecodable": 0,
            "unknown_flow": 0,
            "bytes_sent": 0,
            "datagrams_sent": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> Address:
        self.endpoint = await open_endpoint(self._on_datagram, self.host, self.port)
        self._spawn(self._sweeper())
        return self.endpoint.address

    def _spawn(self, coro: Coroutine[object, object, None]) -> None:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def run_until_shutdown(self) -> None:
        await self._stopped.wait()

    async def close(self) -> None:
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        if self.endpoint is not None:
            self.endpoint.close()

    async def _sweeper(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(5.0)
            self._sweep(loop.time())

    def _sweep(self, now: float) -> None:
        for cid in [
            c
            for c, s in self._sessions.items()
            if s.done or (s.shlo_payload is not None and now - s.last_active > SESSION_LINGER)
        ]:
            del self._sessions[cid]
        # A session mid-sim holds its own reference to the origin, so
        # evicting under it is invisible.
        for od_key in [
            k for k, c in self._chains.items() if now - c.last_active > SESSION_LINGER
        ]:
            del self._chains[od_key]

    # ------------------------------------------------------------------
    # receive path

    def _send(self, data: bytes, addr: Address) -> None:
        assert self.endpoint is not None
        self.endpoint.sendto(data, addr)
        self.stats["bytes_sent"] += len(data)
        self.stats["datagrams_sent"] += 1

    def _send_packet(self, packet: Packet, addr: Address) -> None:
        self._send(encode_envelope(EnvelopeKind.DATA, b"", packet.encode()), addr)

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        try:
            envelope = decode_envelope(data)
        except EnvelopeError:
            # Drop-and-count: the socket twin of Datagram.corrupted.
            self.stats["undecodable"] += 1
            return
        if envelope.kind == EnvelopeKind.CONTROL:
            self._on_control(envelope.payload, addr)
            return
        try:
            packet = protocol.parse_data_payload(envelope.payload)
        except ValueError:
            self.stats["undecodable"] += 1
            return
        if packet.packet_type == PacketType.INITIAL:
            self._on_chlo(packet, envelope.od_key, addr)
        else:
            self._on_session_packet(packet, addr)

    def _on_control(self, payload: bytes, addr: Address) -> None:
        try:
            request = json.loads(payload.decode("utf-8"))
            op = request["op"]
            req_id = request.get("req", 0)
        except (ValueError, KeyError, UnicodeDecodeError):
            self.stats["undecodable"] += 1
            return
        if op == "stats":
            reply = {
                "op": "stats",
                "req": req_id,
                "shard_id": self.shard_id,
                "stats": dict(self.stats),
                "rejected_cookies": self.cookie_manager.rejected_cookies,
                "stale_cookies": self.cookie_manager.stale_cookies,
                "chains": len(self._chains),
                "live_sessions": len(self._sessions),
            }
        elif op == "ping":
            reply = {"op": "pong", "req": req_id, "shard_id": self.shard_id}
        elif op == "shutdown":
            reply = {"op": "bye", "req": req_id, "shard_id": self.shard_id}
            self._stopped.set()
        else:
            self.stats["undecodable"] += 1
            return
        blob = json.dumps(reply, sort_keys=True).encode("utf-8")
        self._send(encode_envelope(EnvelopeKind.CONTROL, b"", blob), addr)

    def _on_chlo(self, packet: Packet, od_key: bytes, addr: Address) -> None:
        loop = asyncio.get_running_loop()
        session = self._sessions.get(packet.connection_id)
        if session is not None:
            # Duplicate CHLO (client retry): re-answer once ready.
            session.last_active = loop.time()
            session.peer = addr
            if session.shlo_payload is not None:
                self._send(session.shlo_payload, addr)
            return
        try:
            message = protocol.decode_handshake_packet(packet)
        except protocol.ProtocolError:
            self.stats["undecodable"] += 1
            return
        if message is None or message.message_type != HandshakeMessageType.CHLO:
            self.stats["undecodable"] += 1
            return
        session = _ShardSession(
            connection_id=packet.connection_id,
            peer=addr,
            od_key=od_key.decode("utf-8", "replace"),
            last_active=loop.time(),
        )
        self._sessions[packet.connection_id] = session
        self.stats["sessions"] += 1
        self._spawn(self._handle_session(session, dict(message.tags)))

    def _on_session_packet(self, packet: Packet, addr: Address) -> None:
        session = self._sessions.get(packet.connection_id)
        if session is None:
            self.stats["unknown_flow"] += 1
            return
        session.last_active = asyncio.get_running_loop().time()
        session.peer = addr
        for frame in protocol.stream_frames(packet):
            if frame.stream_id == protocol.REQUEST_STREAM:
                if frame.data.startswith(b"GET ") and not session.replay_started:
                    session.replay_started = True
                    session.replay_anchor = asyncio.get_running_loop().time()
                    self.stats["replays"] += 1
                    self._spawn(self._replay(session))
            elif frame.stream_id == protocol.CONTROL_STREAM:
                if frame.data == protocol.DONE_MESSAGE:
                    session.done = True
                    # The timeline holds every stream byte of the session
                    # and nothing reads it past DONE; only the husk waits
                    # for the sweep (so late packets still find the flow).
                    session.events.clear()
                elif frame.data.startswith(protocol.RESEND_PREFIX):
                    try:
                        offset = protocol.parse_resend_request(frame.data)
                    except protocol.ProtocolError:
                        self.stats["undecodable"] += 1
                        continue
                    self._resend_from(session, offset)

    # ------------------------------------------------------------------
    # sim oracle

    def _chain_state(self, spec: protocol.ServeSpec, now: float) -> _ChainState:
        state = self._chains.get(spec.od_key)
        if (
            state is None
            or state.stream_name != spec.stream_name
            or state.origin.get_source(spec.stream_name).profile != spec.profile
        ):
            # The spec arrives off the wire: a world is only ever served
            # to the stream it was built from.
            origin = Origin()
            origin.add_stream(spec.stream_name, spec.profile)
            state = self._chains[spec.od_key] = _ChainState(origin, spec.stream_name)
        state.last_active = now
        return state

    async def _handle_session(
        self, session: _ShardSession, tags: Dict[bytes, bytes]
    ) -> None:
        try:
            spec = protocol.ServeSpec.from_json_bytes(tags.get(protocol.TAG_WSPC, b""))
        except protocol.ProtocolError:
            self.stats["undecodable"] += 1
            self._sessions.pop(session.connection_id, None)
            return

        # Seed a synthetic client store with the echoed cookie so the
        # simulated handshake sees the exact sealed bytes the wire
        # carried — this is where a forked wire format would break.
        synthetic_store = ClientCookieStore()
        supports = True
        try:
            supported, received_at_ms, sealed = decode_hqst(tags.get(TAG_HQST, b"\x01"))
            supports = supported
            if sealed is not None:
                synthetic_store.update(
                    "origin", sealed, (received_at_ms or 0) / 1e3
                )
        except CookieError:
            # A corrupt echo behaves like no echo; the sim server will
            # count the rejection when the blob fails to open.
            pass

        chain = self._chain_state(spec, asyncio.get_running_loop().time())
        sim_spec = SessionSpec(
            conditions=spec.conditions,
            scheme=spec.scheme,
            handshake_mode=spec.handshake_mode,
            epoch=spec.epoch,
            seed=spec.seed,
            target_video_frames=spec.target_video_frames,
            wira_config=self.wira,
            client_supports_cookies=supports,
            trace_label=(
                f"serve-{spec.scheme.value}-{spec.od_key}-s{spec.session_index}"
            ),
        )
        stream_tap: List[Tuple[float, int, bytes, bool]] = []
        hx_tap: List[Tuple[float, HxQosFrame]] = []
        sim_session = StreamingSession(
            sim_spec,
            chain.origin,
            chain.stream_name,
            cookie_store=synthetic_store,
            cookie_manager=self.cookie_manager,
            stream_data_tap=lambda t, sid, data, fin: stream_tap.append(
                (t, sid, data, fin)
            ),
            hx_qos_tap=lambda t, frame: hx_tap.append((t, frame)),  # type: ignore[arg-type]
        )
        result, sim_end = await self._run_sim(sim_session)
        if sim_end is None:
            # Traced (blocking) runs don't expose their loop clock; the
            # timeline end is the last tapped delivery plus a margin.
            last_stream = max((t for t, _, _, _ in stream_tap), default=0.0)
            last_hx = max((t for t, _ in hx_tap), default=0.0)
            sim_end = max(last_stream, last_hx) + 0.05
        self.stats["sims_run"] += 1

        events, stream_length = _build_replay_events(stream_tap, hx_tap, sim_end)
        session.events = events
        summary = protocol.ShloSummary(
            completed=result.completed,
            used_cookie=result.used_cookie,
            cookie_pushed=result.cookie_delivered,
            sim_ffct=result.ffct,
            stream_length=stream_length,
            sim_duration=sim_end,
            ff_data_packets_sent=(
                result.ff_server_stats.data_packets_sent
                if result.ff_server_stats is not None
                else 0
            ),
            ff_data_packets_lost=(
                result.ff_server_stats.data_packets_lost
                if result.ff_server_stats is not None
                else 0
            ),
            frames_delivered=len(result.client_metrics.video_frame_times),
            shard_id=self.shard_id,
        )
        shlo = protocol.build_shlo_packet(session.connection_id, 0, summary)
        session.shlo_payload = encode_envelope(EnvelopeKind.DATA, b"", shlo.encode())
        session.last_active = asyncio.get_running_loop().time()
        self._send(session.shlo_payload, session.peer)

    async def _run_sim(
        self, sim_session: StreamingSession
    ) -> Tuple[SessionResult, Optional[float]]:
        """Run the sim, yielding to the socket loop between slices.

        With a trace bus active the whole run serializes under a lock
        (scoped trace files cannot interleave) and uses the plain
        blocking driver; otherwise each slice the session's own drive
        loop asks for is run here, so results are identical.
        Returns ``(result, sim clock at drain end)`` — the clock is
        ``None`` on the traced path, which hides its loop.
        """
        if _obs.ACTIVE is not None:
            async with self._sim_lock:
                return sim_session.run(), None

        sim_loop = SimLoop()
        steps = sim_session.drive(sim_loop)
        try:
            while True:
                sim_loop.run_until(next(steps), max_events=_SLICE_EVENTS)
                await asyncio.sleep(0)
        except StopIteration as finished:
            sim_loop.clear()  # as ``StreamingSession._run`` does; the clock stays
            return finished.value, sim_loop.now

    # ------------------------------------------------------------------
    # replay

    async def _replay(self, session: _ShardSession) -> None:
        loop = asyncio.get_running_loop()
        for index, event in enumerate(session.events):
            delay = session.replay_anchor + event.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if session.done:
                return
            self._send_event(session, event)
            session.sent_through = index + 1

    def _send_event(self, session: _ShardSession, event: _ReplayEvent) -> None:
        if event.hx_frame is not None:
            packet = protocol.build_hx_qos_packet(
                session.connection_id, session.packet_number, event.hx_frame
            )
        else:
            packet = protocol.build_stream_packet(
                session.connection_id,
                session.packet_number,
                protocol.REQUEST_STREAM,
                event.offset,
                event.data,
                fin=event.fin,
            )
        session.packet_number += 1
        self._send_packet(packet, session.peer)

    def _resend_from(self, session: _ShardSession, offset: int) -> None:
        """Re-send already-due events covering stream bytes >= offset.

        Duplicates are harmless — the client reassembles by offset — so
        the repair path favours simplicity: everything due again.
        """
        for event in session.events[: session.sent_through]:
            if event.hx_frame is not None or event.fin or event.offset + len(event.data) > offset:
                self._send_event(session, event)
                self.stats["retransmits"] += 1


def _build_replay_events(
    stream_tap: List[Tuple[float, int, bytes, bool]],
    hx_tap: List[Tuple[float, HxQosFrame]],
    sim_end: float,
) -> Tuple[List[_ReplayEvent], int]:
    """Coalesce the delivery taps into a send schedule.

    Adjacent stream deliveries within :data:`COALESCE_GAP` merge into
    one datagram (bounded by :data:`MAX_CHUNK_BYTES`); cookie pushes
    keep their own timestamps.  A session whose sim never FINished gets
    an explicit empty FIN at the timeline end so the client can
    terminate.
    """
    events: List[_ReplayEvent] = []
    offset = 0
    saw_fin = False
    for at, stream_id, data, fin in stream_tap:
        if stream_id != protocol.REQUEST_STREAM:
            continue
        saw_fin = saw_fin or fin
        # A single sim delivery can be an arbitrarily large reassembled
        # burst — far beyond one UDP datagram — so slice FIRST, then
        # coalesce: every event stays under MAX_CHUNK_BYTES and sendto
        # never hits EMSGSIZE.
        view = memoryview(data)
        for start in range(0, max(1, len(view)), MAX_CHUNK_BYTES):
            piece = bytes(view[start : start + MAX_CHUNK_BYTES])
            piece_fin = fin and start + MAX_CHUNK_BYTES >= len(view)
            if (
                events
                and events[-1].hx_frame is None
                and not events[-1].fin
                and at - events[-1].at <= COALESCE_GAP
                and len(events[-1].data) + len(piece) <= MAX_CHUNK_BYTES
            ):
                events[-1].data += piece
                events[-1].fin = piece_fin
            else:
                events.append(
                    _ReplayEvent(at=at, data=piece, offset=offset, fin=piece_fin)
                )
            offset += len(piece)
    stream_length = offset
    for at, frame in hx_tap:
        events.append(_ReplayEvent(at=at, hx_frame=frame))
    if not saw_fin:
        events.append(_ReplayEvent(at=sim_end, offset=stream_length, fin=True))
    events.sort(key=lambda e: e.at)
    return events, stream_length


# ----------------------------------------------------------------------
# worker entry point


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro.serve.shard", description="Wira serve-mode shard worker"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--shard-id", type=int, required=True)
    parser.add_argument("--cookie-key-hex", required=True)
    parser.add_argument("--salt-hex", required=True)
    parser.add_argument("--wira-json", default=None, help="WiraConfig fields as JSON")
    parser.add_argument(
        "--ready-file",
        required=True,
        help="File to write {'port': …} JSON to once the socket is bound",
    )
    return parser.parse_args(argv)


async def _amain(args: argparse.Namespace) -> None:
    wira = (
        WiraConfig(**json.loads(args.wira_json)) if args.wira_json is not None else None
    )
    server = ShardServer(
        shard_id=args.shard_id,
        cookie_key=bytes.fromhex(args.cookie_key_hex),
        instance_salt=bytes.fromhex(args.salt_hex),
        wira_config=wira,
        host=args.host,
        port=args.port,
    )
    host, port = await server.start()
    ready = {"host": host, "port": port, "shard_id": args.shard_id}
    ready_path = Path(args.ready_file)
    tmp = ready_path.with_suffix(ready_path.suffix + ".tmp")
    tmp.write_text(json.dumps(ready))
    tmp.rename(ready_path)
    try:
        await server.run_until_shutdown()
    finally:
        await server.close()


def main(argv: Optional[List[str]] = None) -> int:
    asyncio.run(_amain(_parse_args(argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

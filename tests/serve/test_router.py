"""The router's routing state: sticky chain pins and idle flows."""

import asyncio
import itertools

from repro.serve.ring import HashRing
from repro.serve.router import FLOW_TTL, Router
from repro.serve.wire import EnvelopeKind, encode_envelope

NODES = ["s0", "s1", "s2"]
ADDRS = {name: ("127.0.0.1", 9000 + i) for i, name in enumerate(NODES + ["s3"])}


class Recorder:
    """Stands in for a router endpoint: records where each send went."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append(addr)


def envelope(od_key, connection_id):
    """A DATA envelope whose payload starts like a packet: flags, then id."""
    return encode_envelope(EnvelopeKind.DATA, od_key.encode(), b"\x40" + connection_id + b"data")


def forward(router, od_key, connection_id, client=("127.0.0.1", 7000)):
    """``_on_front`` stamps flows with the running loop's clock."""

    async def receive():
        router._on_front(envelope(od_key, connection_id), client)

    asyncio.run(receive())


def make_router():
    router = Router(HashRing(NODES), {name: ADDRS[name] for name in NODES})
    router.front, router.back = Recorder(), Recorder()
    return router


def test_pinned_chains_stay_on_their_shard_after_add_shard():
    keys = [f"od-{i}" for i in range(200)]
    router = make_router()
    before = {key: router.shard_for(key) for key in keys}
    router.add_shard("s3", ADDRS["s3"])
    moved = [key for key in keys if router.ring.node_for(key) != before[key]]
    assert moved, "the new ring owns some pinned chains elsewhere"
    assert {key: router.shard_for(key) for key in keys} == before
    # A datagram of a moved chain still goes to the shard it is pinned to.
    forward(router, moved[0], bytes(8))
    assert router.back.sent == [ADDRS[before[moved[0]]]]
    # A chain first seen after the add follows the new ring.
    fresh = next(
        key for key in (f"new-{i}" for i in itertools.count()) if router.ring.node_for(key) == "s3"
    )
    assert router.shard_for(fresh) == "s3"
    assert router.pins[fresh] == "s3"


def test_flow_idle_past_the_ttl_is_gone_after_a_later_put(monkeypatch):
    router = make_router()
    idle, busy = b"idle-id\x00", b"busy-id\x00"
    client = ("127.0.0.1", 7000)
    clock = [0.0]

    async def scenario():
        monkeypatch.setattr(asyncio.get_running_loop(), "time", lambda: clock[0])
        router._on_front(envelope("od-1", idle), client)
        clock[0] = FLOW_TTL  # exactly at the TTL: still routed
        router._on_front(envelope("od-1", busy), client)
        router._on_back(envelope("od-1", idle), ADDRS["s0"])
        assert router.front.sent == [client]
        clock[0] = FLOW_TTL + 1.0
        router._on_front(envelope("od-1", busy), client)

    asyncio.run(scenario())
    assert router.flows.keys() == (busy.hex(),)
    router._on_back(envelope("od-1", idle), ADDRS["s0"])
    router._on_back(envelope("od-1", busy), ADDRS["s0"])
    assert router.front.sent == [client, client]
    assert router.stats["unroutable"] == 1
    assert router.stats["returned"] == 2

"""Consistent-hash front router with sticky chain affinity.

Clients talk to one router address; the router forwards each DATA
envelope to the shard that owns its OD key and relays shard replies back
by flow id.  Two tables hold all routing state:

* **pins** — OD key → shard, one entry per chain routed, never evicted.
  The first datagram of a chain pins it to the ring's current owner;
  later reshards leave pinned chains where their state (origin caches,
  live sources) already lives.  Sticky affinity is what keeps a chain's
  sim-oracle state on one shard.
* **flows** — connection id → client address, refreshed per datagram,
  for reply routing; a flow idle longer than :data:`FLOW_TTL` is dropped
  at the next forward.

Forwarding reads only the envelope header (magic, kind, version, key
length, then the OD key) and the 8-byte connection id at its fixed
offset behind it: no envelope object is built and no payload copied, so
a 30 KB media datagram costs the router what a 50-byte GET does.

Adding/removing a shard swaps in a new ring: only *unpinned* (future)
chains see the new assignment, and the fraction of keys that move is
the consistent-hash bound (~1/(n+1) for an add), pinned by tests.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.serve.ring import HashRing
from repro.serve.store import BoundedKeyedStore
from repro.serve.transport import Address, UdpEndpoint, open_endpoint
from repro.serve.wire import EnvelopeError, parse_header, peek_connection_id

#: Seconds a flow may sit idle before its reply route is dropped.
FLOW_TTL = 120.0


class Router:
    """UDP front/back relay keyed by the consistent-hash ring."""

    def __init__(self, ring: HashRing, shard_addrs: Dict[str, Address]) -> None:
        for node in ring.nodes:
            if node not in shard_addrs:
                raise ValueError(f"ring node {node!r} has no shard address")
        self.ring = ring
        self.shard_addrs = dict(shard_addrs)
        self.front: Optional[UdpEndpoint] = None
        self.back: Optional[UdpEndpoint] = None
        self.flows: BoundedKeyedStore[Address] = BoundedKeyedStore(ttl=FLOW_TTL)
        self.pins: Dict[str, str] = {}
        self.stats: Dict[str, int] = {
            "forwarded": 0,
            "returned": 0,
            "undecodable": 0,
            "unroutable": 0,
            "reshards": 0,
        }

    async def start(self, host: str = "127.0.0.1") -> Address:
        self.front = await open_endpoint(self._on_front, host, 0)
        self.back = await open_endpoint(self._on_back, host, 0)
        return self.front.address

    def close(self) -> None:
        if self.front is not None:
            self.front.close()
        if self.back is not None:
            self.back.close()

    # ------------------------------------------------------------------

    def shard_for(self, od_key: str) -> str:
        """Sticky lookup: pinned shard, else ring owner (then pinned)."""
        pinned = self.pins.get(od_key)
        if pinned is None:
            pinned = self.pins[od_key] = self.ring.node_for(od_key)
        return pinned

    def _on_front(self, data: bytes, addr: Address) -> None:
        assert self.back is not None
        try:
            _, key_start, payload_start = parse_header(data)
            connection_id = peek_connection_id(data, payload_start)
        except EnvelopeError:
            self.stats["undecodable"] += 1
            return
        od_key = data[key_start:payload_start].decode("utf-8", "replace")
        target = self.shard_addrs.get(self.shard_for(od_key))
        if target is None:
            self.stats["unroutable"] += 1
            return
        self.flows.put(connection_id.hex(), addr, asyncio.get_running_loop().time())
        self.back.sendto(data, target)
        self.stats["forwarded"] += 1

    def _on_back(self, data: bytes, addr: Address) -> None:
        assert self.front is not None
        try:
            _, _, payload_start = parse_header(data)
            connection_id = peek_connection_id(data, payload_start)
        except EnvelopeError:
            self.stats["undecodable"] += 1
            return
        client = self.flows.get(connection_id.hex())
        if client is None:
            self.stats["unroutable"] += 1
            return
        self.front.sendto(data, client)
        self.stats["returned"] += 1

    # ------------------------------------------------------------------
    # reshard

    def add_shard(self, name: str, addr: Address) -> None:
        self.shard_addrs[name] = addr
        self.ring = self.ring.with_node(name)
        self.stats["reshards"] += 1


__all__ = ["FLOW_TTL", "Router"]

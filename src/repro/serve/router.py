"""Consistent-hash front router with sticky chain affinity.

Clients talk to one router address; the router forwards each DATA
envelope to the shard that owns its OD key and relays shard replies back
by flow id.  Two bounded stores hold all routing state:

* **pins** — OD key → shard.  The first datagram of a chain pins it to
  the ring's current owner; later reshards leave pinned chains where
  their state (origin caches, live sources) already lives.  Sticky
  affinity is what keeps a chain's sim-oracle state on one shard.
* **flows** — connection id → client address, refreshed per datagram,
  for reply routing.

Adding/removing a shard swaps in a new ring: only *unpinned* (future)
chains see the new assignment, and the fraction of keys that move is
the consistent-hash bound (~1/(n+1) for an add), pinned by tests.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro import obs as _obs
from repro.serve.ring import HashRing
from repro.serve.store import BoundedKeyedStore
from repro.serve.transport import Address, UdpEndpoint, open_endpoint
from repro.serve.wire import (
    EnvelopeError,
    decode_envelope,
    peek_connection_id,
)


class Router:
    """UDP front/back relay keyed by the consistent-hash ring."""

    def __init__(
        self,
        ring: HashRing,
        shard_addrs: Dict[str, Address],
        max_flows: Optional[int] = None,
        flow_ttl: Optional[float] = 120.0,
        max_pins: Optional[int] = None,
        pin_ttl: Optional[float] = None,
    ) -> None:
        for node in ring.nodes:
            if node not in shard_addrs:
                raise ValueError(f"ring node {node!r} has no shard address")
        self.ring = ring
        self.shard_addrs = dict(shard_addrs)
        self.front: Optional[UdpEndpoint] = None
        self.back: Optional[UdpEndpoint] = None
        self.flows: BoundedKeyedStore[Address] = BoundedKeyedStore(max_flows, flow_ttl)
        self.pins: BoundedKeyedStore[str] = BoundedKeyedStore(max_pins, pin_ttl)
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

    def shard_for(self, od_key: str, now: float) -> str:
        """Sticky lookup: pinned shard, else ring owner (then pinned)."""
        pinned = self.pins.get(od_key, now)
        if pinned is not None and pinned in self.shard_addrs:
            self.pins.touch(od_key, now)
            return pinned
        shard = self.ring.node_for(od_key)
        self.pins.put(od_key, shard, now)
        return shard

    def _on_front(self, data: bytes, addr: Address) -> None:
        assert self.back is not None
        try:
            envelope = decode_envelope(data)
            connection_id = peek_connection_id(envelope.payload)
        except EnvelopeError:
            self.stats["undecodable"] += 1
            return
        now = asyncio.get_running_loop().time()
        od_key = envelope.od_key.decode("utf-8", "replace")
        shard = self.shard_for(od_key, now)
        target = self.shard_addrs.get(shard)
        if target is None:
            self.stats["unroutable"] += 1
            return
        self.flows.put(connection_id.hex(), addr, now)
        self.back.sendto(data, target)
        self.stats["forwarded"] += 1

    def _on_back(self, data: bytes, addr: Address) -> None:
        assert self.front is not None
        try:
            envelope = decode_envelope(data)
            connection_id = peek_connection_id(envelope.payload)
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
        self._note_reshard("add", name)

    def _note_reshard(self, action: str, name: str) -> None:
        self.stats["reshards"] += 1
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.emit(
                0.0,
                "serve:reshard",
                "serve",
                {"action": action, "shard": name, "nodes": len(self.ring)},
            )


__all__ = ["Router"]

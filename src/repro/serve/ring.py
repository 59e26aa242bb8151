"""Consistent-hash ring with virtual nodes, keyed on OD pair.

The serve edge routes every chain (OD pair) to one shard.  A modulo
assignment would move ~``(n-1)/n`` of all keys when a shard joins; the
ring moves only the keys whose nearest virtual node changed — in
expectation ``1/(n+1)`` of them — the "bounded key movement" property
``tests/serve/test_ring.py`` pins.

Hashing is ``sha256`` over UTF-8/bytes keys, so placement is a pure
function of (node names, replica count, key): every process — router,
loadtest driver, tests — computes identical assignments with no
coordination.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple, Union

Key = Union[str, bytes]

DEFAULT_REPLICAS = 64


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def _as_bytes(key: Key) -> bytes:
    return key.encode("utf-8") if isinstance(key, str) else key


class HashRing:
    """Immutable-feeling consistent-hash ring (copy to reshard)."""

    def __init__(self, nodes: Iterable[str] = (), replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._nodes: Dict[str, None] = {}
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        for node in nodes:
            self.add_node(node)

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes[node] = None
        for replica in range(self.replicas):
            point = _hash64(f"{node}#{replica}".encode("utf-8"))
            index = bisect.bisect(self._keys, point)
            self._keys.insert(index, point)
            self._points.insert(index, (point, node))

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not on the ring")
        del self._nodes[node]
        kept = [(point, name) for point, name in self._points if name != node]
        self._points = kept
        self._keys = [point for point, _ in kept]

    def node_for(self, key: Key) -> str:
        """The owning node: first virtual node clockwise of the key."""
        if not self._points:
            raise ValueError("ring has no nodes")
        point = _hash64(_as_bytes(key))
        index = bisect.bisect(self._keys, point)
        if index == len(self._keys):
            index = 0
        return self._points[index][1]

    def copy(self) -> "HashRing":
        return HashRing(self.nodes, replicas=self.replicas)

    def with_node(self, node: str) -> "HashRing":
        ring = self.copy()
        ring.add_node(node)
        return ring

    def without_node(self, node: str) -> "HashRing":
        ring = self.copy()
        ring.remove_node(node)
        return ring


def moved_fraction(before: HashRing, after: HashRing, keys: Sequence[Key]) -> float:
    """Fraction of ``keys`` whose owner differs between two rings."""
    if not keys:
        return 0.0
    moved = sum(1 for key in keys if before.node_for(key) != after.node_for(key))
    return moved / len(keys)


__all__ = ["DEFAULT_REPLICAS", "HashRing", "moved_fraction"]

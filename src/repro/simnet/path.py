"""Duplex network path composed of two (possibly asymmetric) links.

A :class:`Path` wires a *server-side* endpoint to a *client-side* endpoint.
The forward link carries server→client traffic (live-streaming data); the
reverse link carries client→server traffic (requests, ACKs).

:class:`NetworkConditions` is the value object used throughout the
reproduction to describe a path configuration — it corresponds to one row
of the paper's testbed matrix or one sampled origin–destination (OD) pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.simnet.engine import EventLoop
from repro.simnet.link import Datagram, Link


@dataclass(frozen=True)
class NetworkConditions:
    """Describes a duplex path.

    Attributes
    ----------
    bandwidth_bps:
        Bottleneck (forward) bandwidth in bits per second.
    rtt:
        Two-way propagation delay in seconds (split evenly per direction).
    loss_rate:
        Forward-direction random loss probability.
    buffer_bytes:
        Forward bottleneck buffer (drop-tail).
    reverse_bandwidth_bps:
        Reverse-direction bandwidth; defaults to the forward rate.
    reverse_loss_rate:
        Reverse-direction random loss probability (usually small; ACK
        loss is far less damaging than data loss).
    """

    bandwidth_bps: float
    rtt: float
    loss_rate: float = 0.0
    buffer_bytes: int = 256 * 1024
    reverse_bandwidth_bps: Optional[float] = None
    reverse_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.rtt < 0:
            raise ValueError("rtt must be non-negative")

    @property
    def one_way_delay(self) -> float:
        return self.rtt / 2.0

    @property
    def bdp_bytes(self) -> int:
        """Bandwidth-delay product in bytes (forward direction)."""
        return int(self.bandwidth_bps * self.rtt / 8.0)

    def scaled(self, bandwidth_factor: float = 1.0, rtt_factor: float = 1.0) -> "NetworkConditions":
        """Return a copy with bandwidth/RTT scaled (for temporal drift)."""
        return replace(
            self,
            bandwidth_bps=self.bandwidth_bps * bandwidth_factor,
            rtt=self.rtt * rtt_factor,
        )


class Path:
    """Duplex path between a server endpoint and a client endpoint.

    Endpoints attach by assigning the delivery callbacks::

        path = Path(loop, conditions, rng)
        path.deliver_to_client = client.datagram_received
        path.deliver_to_server = server.datagram_received
        path.send_to_client(Datagram(packet_bytes))
    """

    def __init__(
        self,
        loop: EventLoop,
        conditions: NetworkConditions,
        rng: Optional[random.Random] = None,
    ) -> None:
        # Seeded default keeps zero-argument Paths reproducible; replayed
        # sessions always pass a per-session rng derived from their seed.
        rng = rng or random.Random(0)  # wira-lint: disable=WL002
        self.loop = loop
        self.conditions = conditions
        reverse_bw = conditions.reverse_bandwidth_bps or conditions.bandwidth_bps
        self.forward = Link(
            loop,
            bandwidth_bps=conditions.bandwidth_bps,
            propagation_delay=conditions.one_way_delay,
            buffer_bytes=conditions.buffer_bytes,
            loss_rate=conditions.loss_rate,
            rng=random.Random(rng.getrandbits(64)),
        )
        self.reverse = Link(
            loop,
            bandwidth_bps=reverse_bw,
            propagation_delay=conditions.one_way_delay,
            buffer_bytes=conditions.buffer_bytes,
            loss_rate=conditions.reverse_loss_rate,
            rng=random.Random(rng.getrandbits(64)),
        )

    @property
    def deliver_to_client(self) -> Optional[Callable[[Datagram], None]]:
        return self.forward.on_deliver

    @deliver_to_client.setter
    def deliver_to_client(self, callback: Callable[[Datagram], None]) -> None:
        self.forward.on_deliver = callback

    @property
    def deliver_to_server(self) -> Optional[Callable[[Datagram], None]]:
        return self.reverse.on_deliver

    @deliver_to_server.setter
    def deliver_to_server(self, callback: Callable[[Datagram], None]) -> None:
        self.reverse.on_deliver = callback

    def close(self) -> None:
        """Detach both endpoints: nothing is delivered any more.

        The delivery callbacks are bound methods of the endpoints, and
        the endpoints hold this path's ``send_to_*``; clearing them is
        what lets a finished topology die by reference count.
        """
        self.forward.on_deliver = None
        self.reverse.on_deliver = None

    def send_to_client(self, datagram: Datagram) -> bool:
        """Transmit server→client; returns admission result."""
        return self.forward.send(datagram)

    def send_to_server(self, datagram: Datagram) -> bool:
        """Transmit client→server; returns admission result."""
        return self.reverse.send(datagram)

    def update_conditions(self, conditions: NetworkConditions) -> None:
        """Change path characteristics mid-simulation.

        Applies to packets admitted after the call: every queued packet
        snapshotted its serialisation rate at admission, and the
        serialisation event in flight is not rescheduled, so a change
        never rewrites the timing of packets the link already accepted.
        """
        self.conditions = conditions
        self.forward.bandwidth_bps = conditions.bandwidth_bps
        self.forward.propagation_delay = conditions.one_way_delay
        self.forward.buffer_bytes = conditions.buffer_bytes
        self.forward.loss_rate = conditions.loss_rate
        self.reverse.bandwidth_bps = conditions.reverse_bandwidth_bps or conditions.bandwidth_bps
        self.reverse.propagation_delay = conditions.one_way_delay
        self.reverse.loss_rate = conditions.reverse_loss_rate

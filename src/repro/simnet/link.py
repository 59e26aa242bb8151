"""Unidirectional bottleneck link with rate, delay, buffer and loss.

The model matches the paper's testbed configuration knobs (§II footnote 2:
"8Mbps bandwidth, 3% loss rate, 50ms RTT and 25KB network buffer"):

* **bandwidth** — serialisation: a packet of ``n`` bytes occupies the link
  for ``8 n / bandwidth`` seconds,
* **propagation delay** — added after serialisation completes,
* **drop-tail buffer** — packets that arrive while the link is busy queue
  up to ``buffer_bytes``; overflow is a *congestion* loss,
* **random loss** — independent Bernoulli drop applied on admission,
  modelling non-congestive (e.g. wireless) loss.

Packets are opaque :class:`Datagram` objects; the link only reads their
size.  A datagram may carry the sender's own parse of its bytes
(``Datagram.packet``) — an object this package imports no type for,
never looks inside beyond asking it to ``encode()`` when someone reads
the bytes, and simply delivers.  Delivery order is FIFO unless
reordering is enabled.  Condition changes
(bandwidth, delay, loss) take effect for packets admitted after the
change: each packet snapshots the serialisation rate at admission, so a
mid-queue bandwidth change never rewrites the transmission time of
packets already accepted into the buffer.

Adverse-network extensions (driven by
:class:`~repro.simnet.schedule.PathSchedule`):

* ``loss_model`` — a stateful drop process (e.g. Gilbert–Elliott bursty
  loss) replacing the independent Bernoulli draw when set;
* ``reorder_rate`` / ``reorder_delay`` — a fraction of packets receives
  a bounded extra propagation delay, letting later packets overtake;
* ``duplicate_rate`` — a fraction of packets is delivered twice;
* ``down`` — link outage: every offered packet is dropped on admission
  until the flag clears (packets already serialising still complete,
  matching a cut after the bottleneck's input).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Protocol, Tuple
from collections import deque

from repro.simnet.engine import EventLoop


class LossModel(Protocol):
    """Stateful per-packet drop process (see :mod:`repro.simnet.schedule`)."""

    def should_drop(self) -> bool:
        """Advance the process one packet; True drops it."""
        ...


class WirePacket(Protocol):
    """What a datagram can build its bytes from: anything that encodes."""

    def encode(self) -> bytes:
        """The packet's wire bytes."""
        ...


class Datagram:
    """A packet travelling through the simulated network.

    Attributes
    ----------
    payload:
        Opaque wire bytes (the QUIC-like packet produced by
        :mod:`repro.quic.packet`).  A datagram built from ``packet``
        alone encodes them on first read and keeps them; until then
        they do not exist.
    size:
        Size on the wire in bytes; defaults to ``len(payload)`` but may be
        set larger to account for UDP/IP framing overhead.  Required
        when only ``packet`` is given — the link reads nothing else.
    corrupted:
        Set by the fault injector when it flips bits in ``payload``.  A
        real transport's AEAD rejects a corrupted datagram with
        overwhelming probability; the simulator has no packet AEAD
        (documented substitution, DESIGN.md), so receivers consult this
        flag to model that rejection and drop the datagram.
    packet:
        The sender's parse of ``payload``; ``None`` for bytes from
        anywhere else (tests, the fault injector's mutated copies, a real
        socket).  Opaque here — only the sending and receiving endpoints
        know its type; this class only ever calls its ``encode()``.
    """

    __slots__ = ("_payload", "size", "corrupted", "packet")

    def __init__(
        self,
        payload: Optional[bytes] = None,
        size: int = 0,
        corrupted: bool = False,
        packet: Optional[WirePacket] = None,
    ) -> None:
        if payload is None:
            if packet is None:
                raise ValueError("a datagram needs bytes or a packet to encode them from")
            if size <= 0:
                raise ValueError("a datagram without bytes must declare its size")
        else:
            if size == 0:
                size = len(payload)
            if size < len(payload):
                raise ValueError("declared size smaller than payload")
        self._payload = payload
        self.size = size
        self.corrupted = corrupted
        self.packet = packet

    @property
    def payload(self) -> bytes:
        payload = self._payload
        if payload is None:
            assert self.packet is not None  # the constructor's rule
            payload = self._payload = self.packet.encode()
        return payload


@dataclass
class LinkStats:
    """Counters exposed by :class:`Link` for experiment reporting."""

    admitted: int = 0
    delivered: int = 0
    random_losses: int = 0
    buffer_losses: int = 0
    outage_losses: int = 0
    #: Sub-count of ``random_losses`` attributable to a ``loss_model``
    #: (e.g. Gilbert–Elliott bad-state drops).
    burst_losses: int = 0
    reordered: int = 0
    duplicated: int = 0
    bytes_delivered: int = 0
    max_queue_bytes: int = 0

    @property
    def dropped(self) -> int:
        return self.random_losses + self.buffer_losses + self.outage_losses

    @property
    def loss_rate(self) -> float:
        sent = self.admitted + self.dropped
        return self.dropped / sent if sent else 0.0


class Link:
    """One-way link: ``send()`` on one side, ``on_deliver`` on the other.

    Parameters
    ----------
    loop:
        Event loop supplying the clock.
    bandwidth_bps:
        Bottleneck rate in bits per second.
    propagation_delay:
        One-way propagation latency in seconds.
    buffer_bytes:
        Drop-tail queue capacity.  The packet currently being serialised
        does not count against the buffer, matching the usual
        router-queue abstraction.
    loss_rate:
        Probability each admitted packet is dropped independently.
        Ignored while a ``loss_model`` is installed.
    rng:
        Source of randomness for loss/impairment decisions.
    on_deliver:
        Callback invoked as ``on_deliver(datagram)`` when a packet exits
        the link.  May be (re)assigned after construction.

    The impairment attributes (``loss_model``, ``reorder_rate``,
    ``reorder_delay``, ``duplicate_rate``, ``down``) default to inert
    values and are assigned directly by
    :meth:`~repro.simnet.schedule.PathSchedule.install`; when they stay
    at their defaults the link draws no extra randomness, so existing
    seeded runs replay byte-identically.
    """

    __slots__ = (
        "_loop",
        "bandwidth_bps",
        "propagation_delay",
        "buffer_bytes",
        "loss_rate",
        "loss_model",
        "reorder_rate",
        "reorder_delay",
        "duplicate_rate",
        "down",
        "_rng",
        "on_deliver",
        "stats",
        "_queue",
        "_queue_bytes",
        "_busy",
    )

    def __init__(
        self,
        loop: EventLoop,
        bandwidth_bps: float,
        propagation_delay: float,
        buffer_bytes: int = 256 * 1024,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        on_deliver: Optional[Callable[[Datagram], None]] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self._loop = loop
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self.buffer_bytes = buffer_bytes
        self.loss_rate = loss_rate
        self.loss_model: Optional[LossModel] = None
        self.reorder_rate = 0.0
        self.reorder_delay = 0.0
        self.duplicate_rate = 0.0
        self.down = False
        # Seeded default keeps zero-argument Links reproducible; sessions
        # that need independent loss processes pass their own rng (Path
        # derives one per direction from the session seed).
        self._rng = rng or random.Random(0)  # wira-lint: disable=WL002
        self.on_deliver = on_deliver
        self.stats = LinkStats()
        # Queue entries snapshot the serialisation rate at admission.
        self._queue: Deque[Tuple[Datagram, float]] = deque()
        self._queue_bytes = 0
        self._busy = False

    def send(self, datagram: Datagram) -> bool:
        """Offer a packet to the link.

        Returns ``True`` if the packet was admitted (it may still take a
        while to be delivered) and ``False`` if it was lost to an outage,
        random loss or buffer overflow.
        """
        if self.down:
            self.stats.outage_losses += 1
            return False
        if self.loss_model is not None:
            if self.loss_model.should_drop():
                self.stats.random_losses += 1
                self.stats.burst_losses += 1
                return False
        elif self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.stats.random_losses += 1
            return False
        if self._busy:
            if self._queue_bytes + datagram.size > self.buffer_bytes:
                self.stats.buffer_losses += 1
                return False
            self._queue.append((datagram, self.bandwidth_bps))
            self._queue_bytes += datagram.size
            if self._queue_bytes > self.stats.max_queue_bytes:
                self.stats.max_queue_bytes = self._queue_bytes
        else:
            self._begin_transmission(datagram, self.bandwidth_bps)
        self.stats.admitted += 1
        return True

    def _begin_transmission(self, datagram: Datagram, rate_bps: float) -> None:
        self._busy = True
        tx_time = datagram.size * 8.0 / rate_bps
        self._loop.post_later(tx_time, self._finish_transmission, datagram)

    def _finish_transmission(self, datagram: Datagram) -> None:
        delay = self.propagation_delay
        # Impairments draw randomness only when enabled, so unimpaired
        # links keep their historical rng stream.
        if self.duplicate_rate > 0.0 and self._rng.random() < self.duplicate_rate:
            self.stats.duplicated += 1
            self._loop.post_later(delay, self._deliver, datagram)
        if self.reorder_rate > 0.0 and self._rng.random() < self.reorder_rate:
            self.stats.reordered += 1
            delay += self._rng.uniform(0.0, self.reorder_delay)
        self._loop.post_later(delay, self._deliver, datagram)
        if self._queue:
            next_datagram, rate_bps = self._queue.popleft()
            self._queue_bytes -= next_datagram.size
            self._begin_transmission(next_datagram, rate_bps)
        else:
            self._busy = False

    def _deliver(self, datagram: Datagram) -> None:
        self.stats.delivered += 1
        self.stats.bytes_delivered += datagram.size
        if self.on_deliver is not None:
            self.on_deliver(datagram)

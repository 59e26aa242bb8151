"""Tests for the rate/delay/buffer/loss link model."""

import random

import pytest

from repro.simnet.batch import BatchEventLoop
from repro.simnet.engine import EventLoop
from repro.simnet.link import Datagram, Link


def make_link(loop, **kwargs):
    delivered = []
    defaults = dict(
        bandwidth_bps=8_000_000.0,
        propagation_delay=0.025,
        buffer_bytes=25_000,
        loss_rate=0.0,
        rng=random.Random(1),
    )
    defaults.update(kwargs)
    link = Link(loop, on_deliver=delivered.append, **defaults)
    return link, delivered


def test_datagram_size_defaults_to_payload_length():
    d = Datagram(b"hello")
    assert d.size == 5


def test_datagram_size_can_include_framing_overhead():
    d = Datagram(b"hello", size=33)
    assert d.size == 33


def test_datagram_size_cannot_undercount():
    with pytest.raises(ValueError):
        Datagram(b"hello", size=2)


def test_single_packet_latency_is_serialization_plus_propagation():
    loop = EventLoop()
    link, delivered = make_link(loop, bandwidth_bps=8_000.0, propagation_delay=0.1)
    link.send(Datagram(b"x" * 100))  # 100B at 8kbps -> 0.1s serialisation
    loop.run()
    assert delivered and loop.now == pytest.approx(0.2)


def test_fifo_delivery_order():
    loop = EventLoop()
    link, delivered = make_link(loop)
    for i in range(5):
        link.send(Datagram(bytes([i]) * 100))
    loop.run()
    assert [d.payload[0] for d in delivered] == [0, 1, 2, 3, 4]


def test_back_to_back_packets_serialize_sequentially():
    loop = EventLoop()
    link, delivered = make_link(loop, bandwidth_bps=8_000.0, propagation_delay=0.0)
    link.send(Datagram(b"a" * 100))
    link.send(Datagram(b"b" * 100))
    times = []
    link.on_deliver = lambda d: times.append(loop.now)
    loop.run()
    assert times == [pytest.approx(0.1), pytest.approx(0.2)]


def test_buffer_overflow_drops_tail():
    loop = EventLoop()
    link, delivered = make_link(loop, buffer_bytes=1_000)
    # First packet starts serialising immediately (not buffered); next
    # 1000B fit in the buffer exactly; anything further is dropped.
    assert link.send(Datagram(b"x" * 500))
    assert link.send(Datagram(b"y" * 1_000))
    assert not link.send(Datagram(b"z" * 10))
    assert link.stats.buffer_losses == 1
    loop.run()
    assert len(delivered) == 2


def test_random_loss_statistics():
    loop = EventLoop()
    link, delivered = make_link(loop, loss_rate=0.3, rng=random.Random(42), buffer_bytes=10**9)
    n = 5_000
    for _ in range(n):
        link.send(Datagram(b"p" * 100))
    loop.run()
    observed = link.stats.random_losses / n
    assert 0.27 < observed < 0.33
    assert len(delivered) == n - link.stats.random_losses


def test_loss_is_deterministic_given_seed():
    def run(seed):
        loop = EventLoop()
        link, delivered = make_link(loop, loss_rate=0.5, rng=random.Random(seed), buffer_bytes=10**9)
        outcomes = [link.send(Datagram(b"p" * 100)) for _ in range(100)]
        loop.run()
        return outcomes

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_queue_drains_after_busy_period():
    loop = EventLoop()
    link, delivered = make_link(loop, bandwidth_bps=80_000.0, propagation_delay=0.0)
    for _ in range(10):
        link.send(Datagram(b"x" * 1_000))  # each takes 0.1s
    loop.run()
    assert len(delivered) == 10
    assert loop.now == pytest.approx(1.0)
    assert link.queue_bytes == 0


def test_stats_track_bytes_and_max_queue():
    loop = EventLoop()
    link, _ = make_link(loop, buffer_bytes=10_000)
    for _ in range(5):
        link.send(Datagram(b"x" * 1_000))
    assert link.stats.max_queue_bytes == 4_000  # first packet went straight to the wire
    loop.run()
    assert link.stats.bytes_delivered == 5_000
    assert link.stats.loss_rate == 0.0


def test_invalid_parameters_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        Link(loop, bandwidth_bps=0, propagation_delay=0.0)
    with pytest.raises(ValueError):
        Link(loop, bandwidth_bps=1.0, propagation_delay=-1.0)
    with pytest.raises(ValueError):
        Link(loop, bandwidth_bps=1.0, propagation_delay=0.0, loss_rate=1.5)


# ---------------------------------------------------------------------------
# Admission-time rate snapshot (docstring contract: condition changes apply
# to packets admitted after the change).


def test_queued_packets_keep_admission_time_rate():
    """A bandwidth drop must not slow packets already in the buffer."""
    loop = EventLoop()
    link, delivered = make_link(loop, bandwidth_bps=80_000.0, propagation_delay=0.0)
    for _ in range(5):
        link.send(Datagram(b"x" * 1_000))  # 0.1s each at the admission rate
    link.bandwidth_bps = 8_000.0  # 10x slower — applies to future admissions
    loop.run()
    assert len(delivered) == 5
    assert loop.now == pytest.approx(0.5)  # not 0.1 + 4*1.0


def test_rate_change_applies_to_later_admissions():
    loop = EventLoop()
    link, delivered = make_link(loop, bandwidth_bps=80_000.0, propagation_delay=0.0)
    link.send(Datagram(b"x" * 1_000))  # 0.1s
    link.bandwidth_bps = 8_000.0
    link.send(Datagram(b"y" * 1_000))  # queued at the new 1.0s rate
    loop.run()
    assert loop.now == pytest.approx(1.1)


# ---------------------------------------------------------------------------
# Impairments (loss model, reordering, duplication, outage).


class FixedDrops:
    """Scripted LossModel: drops packets at the given indices."""

    def __init__(self, drop_indices):
        self.drop_indices = set(drop_indices)
        self.seen = 0

    def should_drop(self):
        drop = self.seen in self.drop_indices
        self.seen += 1
        return drop


def test_loss_model_replaces_bernoulli_loss():
    loop = EventLoop()
    # loss_rate would drop ~everything; the model must take precedence.
    link, delivered = make_link(loop, loss_rate=0.99, rng=random.Random(1))
    link.loss_model = FixedDrops({1})
    outcomes = [link.send(Datagram(bytes([i]) * 100)) for i in range(3)]
    loop.run()
    assert outcomes == [True, False, True]
    assert link.stats.random_losses == 1
    assert link.stats.burst_losses == 1
    assert [d.payload[0] for d in delivered] == [0, 2]


def test_down_link_drops_on_admission():
    loop = EventLoop()
    link, delivered = make_link(loop)
    link.down = True
    assert link.send(Datagram(b"x" * 100)) is False
    link.down = False
    assert link.send(Datagram(b"y" * 100)) is True
    loop.run()
    assert link.stats.outage_losses == 1
    assert link.stats.dropped == 1
    assert len(delivered) == 1


def test_duplicate_rate_delivers_twice():
    loop = EventLoop()
    link, delivered = make_link(loop, rng=random.Random(2))
    link.duplicate_rate = 1.0
    link.send(Datagram(b"d" * 100))
    loop.run()
    assert len(delivered) == 2
    assert link.stats.duplicated == 1
    assert link.stats.delivered == 2


class MaxDelayRng:
    """Stub rng: every impairment check fires, every delay is its bound."""

    @staticmethod
    def random():
        return 0.0

    @staticmethod
    def uniform(low, high):
        return high


def test_reordering_lets_later_packet_overtake():
    loop = EventLoop()
    link, delivered = make_link(
        loop, bandwidth_bps=8_000_000.0, propagation_delay=0.001, rng=MaxDelayRng()
    )
    link.reorder_rate = 1.0
    link.reorder_delay = 0.5
    link.send(Datagram(b"\x00" * 100))
    # Impairments are sampled when serialisation finishes; disable after
    # the first packet's finish so only it receives the extra delay.
    loop.post_at(0.0001, setattr, link, "reorder_rate", 0.0)
    loop.post_at(0.0002, link.send, Datagram(b"\x01" * 100))
    loop.run()
    assert link.stats.reordered == 1
    assert [d.payload[0] for d in delivered] == [1, 0]


def test_inert_impairments_preserve_rng_stream():
    """Default-impairment links must replay byte-identically to the seed."""

    def run():
        loop = EventLoop()
        link, delivered = make_link(loop, loss_rate=0.3, rng=random.Random(9))
        outcomes = [link.send(Datagram(b"p" * 100)) for _ in range(200)]
        loop.run()
        return outcomes, len(delivered)

    assert run() == run()


def test_admission_collides_with_serialisation_finish():
    """A send at *exactly* a serialisation-finish instant, from an event
    with a smaller ``seq``, must see the buffer still occupied.

    The finish event's queue pop happens at ``(T, seq_finish)``, and a
    competing admission at ``(T, seq_smaller)`` runs before it.
    Accounting keyed on the timestamp alone would free the buffer too
    early and flip the drop-tail decision.
    """
    loop = EventLoop()
    link, _ = make_link(
        loop,
        bandwidth_bps=80_000.0,  # 1000 B -> exactly 0.1 s on the wire
        propagation_delay=0.005,
        buffer_bytes=2_000,
    )
    late_result = []

    def setup():
        # Posted *before* the head packet's finish event, so at t=0.1
        # this runs first (smaller seq).  The buffer still holds both
        # queued packets at that point: reject.
        loop.post_at(0.1, lambda: late_result.append(link.send(Datagram(b"d" * 1000))))
        assert [link.send(Datagram(b"a" * 1000)) for _ in range(3)] == [True] * 3

    loop.post_at(0.0, setup)
    loop.run()
    assert late_result == [False]  # the colliding send was dropped
    assert link.stats.buffer_losses == 1  # ...as a buffer loss
    assert link.stats.delivered == 3


def test_burst_on_member_loop_matches_solo_loop():
    """A back-to-back train sent on a MemberLoop must equal solo-loop runs."""
    sizes = (300, 900, 1500, 40, 700) * 6
    observed = {}
    for mode in ("solo", "batch"):
        if mode == "solo":
            kernel = target = EventLoop()
        else:
            kernel = BatchEventLoop()
            target = kernel.member()
        link = Link(
            target,
            bandwidth_bps=2_500_000.0,
            propagation_delay=0.008,
            buffer_bytes=10**6,
            rng=random.Random(4),
        )
        delivered = []
        link.on_deliver = lambda d: delivered.append((target.now, d.size))
        for size in sizes:
            assert link.send(Datagram(b"w" * size))
        kernel.run()
        observed[mode] = delivered
    assert len(observed["solo"]) == len(sizes)
    assert observed["solo"] == observed["batch"]

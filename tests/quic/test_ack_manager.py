"""Tests for receiver-side ACK generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic.ack_manager import AckManager
from repro.quic.config import ACK_EVERY, MAX_ACK_DELAY


def ack_due(mgr, now):
    deadline = mgr.ack_deadline(now)
    return deadline is not None and deadline <= now


def test_no_ack_before_packets():
    mgr = AckManager()
    assert mgr.build_ack(0.0) is None
    assert mgr.ack_deadline(0.0) is None


def test_every_second_eliciting_packet_acks_immediately():
    assert ACK_EVERY == 2
    mgr = AckManager()
    mgr.on_packet_received(0, ack_eliciting=True, now=0.0)
    assert not ack_due(mgr, 0.0)
    mgr.on_packet_received(1, ack_eliciting=True, now=0.001)
    assert ack_due(mgr, 0.001)


def test_single_packet_acks_after_max_ack_delay():
    assert MAX_ACK_DELAY == pytest.approx(0.025)
    mgr = AckManager()
    mgr.on_packet_received(0, ack_eliciting=True, now=1.0)
    assert mgr.ack_deadline(1.0) == pytest.approx(1.025)
    assert not ack_due(mgr, 1.01)
    assert ack_due(mgr, 1.025)


def test_non_eliciting_packets_do_not_demand_acks():
    mgr = AckManager()
    mgr.on_packet_received(0, ack_eliciting=False, now=0.0)
    assert mgr.ack_deadline(0.0) is None


def test_build_ack_covers_contiguous_range():
    mgr = AckManager()
    for pn in range(5):
        mgr.on_packet_received(pn, ack_eliciting=True, now=0.0)
    ack = mgr.build_ack(0.0)
    assert ack.largest_acked == 4
    assert ack.ranges == ((0, 4),)


def test_build_ack_with_gaps():
    mgr = AckManager()
    for pn in [0, 1, 4, 5, 9]:
        mgr.on_packet_received(pn, ack_eliciting=True, now=0.0)
    ack = mgr.build_ack(0.0)
    assert ack.ranges == ((9, 9), (4, 5), (0, 1))


def test_reordered_arrival_triggers_immediate_ack():
    mgr = AckManager()
    mgr.on_packet_received(5, ack_eliciting=True, now=0.0)
    mgr.build_ack(0.0)
    # One packet since the ACK, inside MAX_ACK_DELAY and short of
    # ACK_EVERY: only the reorder makes the ACK due.
    mgr.on_packet_received(2, ack_eliciting=True, now=0.01)  # out of order
    assert ack_due(mgr, 0.01)


def test_duplicate_detection():
    mgr = AckManager()
    assert not mgr.on_packet_received(3, ack_eliciting=True, now=0.0)
    assert mgr.on_packet_received(3, ack_eliciting=True, now=0.1)


def test_ack_delay_reflects_holding_time():
    mgr = AckManager()
    mgr.on_packet_received(0, ack_eliciting=True, now=1.0)
    ack = mgr.build_ack(1.020)
    assert ack.ack_delay_us == pytest.approx(20_000, abs=1)


def test_build_ack_resets_pending_state():
    mgr = AckManager()
    mgr.on_packet_received(0, ack_eliciting=True, now=0.0)
    mgr.on_packet_received(1, ack_eliciting=True, now=0.0)
    mgr.build_ack(0.0)
    assert mgr.ack_deadline(0.0) is None


def test_largest_received_tracked():
    mgr = AckManager()
    mgr.on_packet_received(7, ack_eliciting=False, now=0.0)
    mgr.on_packet_received(3, ack_eliciting=False, now=0.0)
    assert mgr.largest_received == 7


def sorted_set_ranges(received):
    """What ``_ranges`` did before the runs were kept incrementally: sort
    every number ever received, then walk it."""
    numbers = sorted(received, reverse=True)
    ranges = []
    high = low = numbers[0]
    for number in numbers[1:]:
        if number == low - 1:
            low = number
        else:
            ranges.append((low, high))
            high = low = number
    ranges.append((low, high))
    return tuple(ranges)


@given(st.lists(st.integers(0, 60), min_size=1, max_size=120))
def test_runs_equal_the_sorted_set_in_any_arrival_order(arrivals):
    """Reordered, gapped and duplicated arrivals: after every packet the
    incrementally merged runs are the ranges of the sorted set, and a
    packet is a duplicate exactly when the set already held it."""
    mgr = AckManager()
    received = set()
    for pn in arrivals:
        assert mgr.on_packet_received(pn, ack_eliciting=True, now=0.0) == (pn in received)
        received.add(pn)
        assert mgr._ranges() == sorted_set_ranges(received)
    ack = mgr.build_ack(0.0)
    assert ack.largest_acked == max(received)
    assert set(ack.acked_packet_numbers()) == received


class ReferenceAcks:
    """The receiver as first written: every number ever received in a
    set, duplicates found by membership, ranges by sorting the set.  The
    oracle for the manager's in-order fast path and its merged runs."""

    def __init__(self, max_ack_delay, ack_every):
        self.max_ack_delay = max_ack_delay
        self.ack_every = ack_every
        self.received = set()
        self.largest = None
        self.largest_recv_time = 0.0
        self.unacked_eliciting = 0
        self.ack_pending = False

    def on_packet_received(self, pn, ack_eliciting, now):
        duplicate = pn in self.received
        self.received.add(pn)
        reordered = self.largest is not None and pn < self.largest
        if self.largest is None or pn > self.largest:
            self.largest = pn
            self.largest_recv_time = now
        if ack_eliciting and not duplicate:
            self.unacked_eliciting += 1
            self.ack_pending = True
            if reordered:
                self.unacked_eliciting = self.ack_every
        return duplicate

    def ack_deadline(self, now):
        if not self.ack_pending:
            return None
        if self.unacked_eliciting >= self.ack_every:
            return now
        return self.largest_recv_time + self.max_ack_delay

    def build_ack(self, now):
        if self.largest is None:
            return None
        self.unacked_eliciting = 0
        self.ack_pending = False
        return (self.largest, int(max(0.0, now - self.largest_recv_time) * 1e6),
                sorted_set_ranges(self.received))


#: One receiver step: the next number in order (the common case), a jump
#: past a gap, a late or repeated earlier number, or an ACK built; each
#: with its ack-elicitation and a clock step.
arrival_steps = st.lists(
    st.tuples(
        st.sampled_from(["next", "next", "next", "next", "jump", "late", "ack"]),
        st.integers(1, 40),
        st.booleans(),
        st.one_of(st.just(0.0), st.floats(1e-5, 0.03)),
    ),
    min_size=1,
    max_size=150,
)


@settings(max_examples=200, deadline=None)
@given(arrival_steps)
def test_in_order_fast_path_equals_set_reference(steps):
    """Mostly in-order arrivals with gaps, late and duplicate numbers and
    ACKs built in between: duplicates, ranges and the ACK deadline match
    the set-based reference after every step."""
    mgr = AckManager()
    reference = ReferenceAcks(MAX_ACK_DELAY, ACK_EVERY)
    now = 0.0
    next_pn = 0
    for kind, k, eliciting, step in steps:
        now += step
        if kind == "ack":
            ack = mgr.build_ack(now)
            expected = reference.build_ack(now)
            if expected is None:
                assert ack is None
            else:
                assert (ack.largest_acked, ack.ack_delay_us, ack.ranges) == expected
        else:
            if kind == "next":
                pn = next_pn
            elif kind == "jump":
                pn = next_pn + k
            else:
                pn = max(0, next_pn - k)
            next_pn = max(next_pn, pn + 1)
            assert mgr.on_packet_received(pn, eliciting, now) == reference.on_packet_received(
                pn, eliciting, now
            )
            assert mgr._ranges() == sorted_set_ranges(reference.received)
            assert mgr.largest_received == reference.largest
        assert mgr.ack_pending == reference.ack_pending
        assert mgr.ack_deadline(now) == reference.ack_deadline(now)

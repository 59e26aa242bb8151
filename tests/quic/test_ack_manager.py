"""Tests for receiver-side ACK generation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic.ack_manager import AckManager


def test_no_ack_before_packets():
    mgr = AckManager()
    assert mgr.build_ack(0.0) is None
    assert mgr.ack_deadline(0.0) is None


def test_every_second_eliciting_packet_acks_immediately():
    mgr = AckManager(ack_every=2)
    mgr.on_packet_received(0, ack_eliciting=True, now=0.0)
    assert not mgr.should_ack_now(0.0)
    mgr.on_packet_received(1, ack_eliciting=True, now=0.001)
    assert mgr.should_ack_now(0.001)


def test_single_packet_acks_after_max_ack_delay():
    mgr = AckManager(max_ack_delay=0.025)
    mgr.on_packet_received(0, ack_eliciting=True, now=1.0)
    assert mgr.ack_deadline(1.0) == pytest.approx(1.025)
    assert not mgr.should_ack_now(1.01)
    assert mgr.should_ack_now(1.025)


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
    mgr = AckManager(ack_every=10)
    mgr.on_packet_received(5, ack_eliciting=True, now=0.0)
    mgr.build_ack(0.0)
    mgr.on_packet_received(2, ack_eliciting=True, now=0.1)  # out of order
    assert mgr.should_ack_now(0.1)


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
    mgr = AckManager(ack_every=2)
    mgr.on_packet_received(0, ack_eliciting=True, now=0.0)
    mgr.on_packet_received(1, ack_eliciting=True, now=0.0)
    mgr.build_ack(0.0)
    assert mgr.ack_deadline(0.0) is None


def test_largest_received_tracked():
    mgr = AckManager()
    mgr.on_packet_received(7, ack_eliciting=False, now=0.0)
    mgr.on_packet_received(3, ack_eliciting=False, now=0.0)
    assert mgr.largest_received == 7


def test_invalid_ack_every():
    with pytest.raises(ValueError):
        AckManager(ack_every=0)


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

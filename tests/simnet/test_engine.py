"""Tests for the discrete-event engine."""

import pytest

from repro.simnet.engine import EventLoop, SimulationError


def test_clock_starts_at_zero():
    loop = EventLoop()
    assert loop.now == 0.0


def test_clock_custom_start():
    loop = EventLoop(start_time=10.0)
    assert loop.now == 10.0


def test_call_later_advances_clock():
    loop = EventLoop()
    fired = []
    loop.call_later(1.5, fired.append, "a")
    loop.run()
    assert fired == ["a"]
    assert loop.now == 1.5


def test_events_run_in_time_order():
    loop = EventLoop()
    order = []
    loop.call_later(2.0, order.append, "late")
    loop.call_later(1.0, order.append, "early")
    loop.call_later(3.0, order.append, "latest")
    loop.run()
    assert order == ["early", "late", "latest"]


def test_simultaneous_events_run_in_schedule_order():
    loop = EventLoop()
    order = []
    for name in "abcde":
        loop.call_later(1.0, order.append, name)
    loop.run()
    assert order == list("abcde")


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    fired = []
    event = loop.call_later(1.0, fired.append, "x")
    event.cancel()
    loop.run()
    assert fired == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    event = loop.call_later(1.0, lambda: None)
    event.cancel()
    event.cancel()
    loop.run()


def test_cannot_schedule_in_the_past():
    loop = EventLoop(start_time=5.0)
    with pytest.raises(SimulationError):
        loop.call_at(4.0, lambda: None)


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.call_later(-0.1, lambda: None)


def test_run_until_stops_at_deadline():
    loop = EventLoop()
    fired = []
    loop.call_later(1.0, fired.append, "a")
    loop.call_later(5.0, fired.append, "b")
    loop.run_until(2.0)
    assert fired == ["a"]
    assert loop.now == 2.0
    loop.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_without_events():
    loop = EventLoop()
    loop.run_until(7.0)
    assert loop.now == 7.0


def test_run_until_stopped_on_max_events_does_not_rewind_clock():
    """Stopping on ``max_events`` with events still due must leave the
    clock at the last event run: jumping to the deadline would make the
    next run pop an earlier event and move ``now`` backwards."""
    loop = EventLoop()
    seen = []
    for when in (0.1, 0.2, 0.3):
        loop.post_at(when, lambda: seen.append(loop.now))
    cancelled = loop.call_at(0.15, seen.append, "cancelled")
    cancelled.cancel()
    assert loop.run_until(1.0, max_events=1) == 1
    assert loop.now == 0.1
    clock = [loop.now]
    while loop.pending_events:
        loop.run_until(1.0, max_events=1)
        clock.append(loop.now)
    # The last slice found nothing else due, so it did reach the deadline.
    assert clock == [0.1, 0.2, 1.0]
    assert seen == [0.1, 0.2, 0.3]


def test_run_until_reaches_deadline_when_only_later_events_remain():
    loop = EventLoop()
    loop.post_at(0.1, lambda: None)
    loop.post_at(2.0, lambda: None)
    assert loop.run_until(1.0, max_events=1) == 1
    assert loop.now == 1.0


def test_events_can_schedule_events():
    loop = EventLoop()
    times = []

    def chain(n):
        times.append(loop.now)
        if n > 0:
            loop.call_later(1.0, chain, n - 1)

    loop.call_later(0.0, chain, 3)
    loop.run()
    assert times == [0.0, 1.0, 2.0, 3.0]


def test_max_events_limit():
    loop = EventLoop()
    fired = []
    for i in range(10):
        loop.call_later(float(i), fired.append, i)
    executed = loop.run(max_events=4)
    assert executed == 4
    assert fired == [0, 1, 2, 3]


def test_pending_and_processed_counters():
    loop = EventLoop()
    keep = loop.call_later(1.0, lambda: None)
    drop = loop.call_later(2.0, lambda: None)
    drop.cancel()
    assert loop.pending_events == 1
    loop.run()
    assert loop.processed_events == 1
    assert keep.cancelled is False


def test_pending_counter_is_live():
    loop = EventLoop()
    events = [loop.call_later(float(i + 1), lambda: None) for i in range(5)]
    loop.post_later(6.0, lambda: None)
    assert loop.pending_events == 6
    events[0].cancel()
    events[0].cancel()  # idempotent: no double decrement
    assert loop.pending_events == 5
    loop.run(max_events=2)
    assert loop.pending_events == 3
    loop.run()
    assert loop.pending_events == 0


def test_cancel_after_execution_does_not_corrupt_counter():
    loop = EventLoop()
    event = loop.call_later(1.0, lambda: None)
    loop.call_later(2.0, lambda: None)
    loop.run(max_events=1)
    event.cancel()  # already ran; must not decrement the live counter
    assert loop.pending_events == 1
    loop.run()
    assert loop.pending_events == 0


def test_post_later_fires_in_order_with_call_later():
    loop = EventLoop()
    order = []
    loop.call_later(1.0, order.append, "a")
    loop.post_later(1.0, order.append, "b")
    loop.call_later(1.0, order.append, "c")
    loop.run()
    assert order == ["a", "b", "c"]


def test_post_at_rejects_past_and_negative():
    loop = EventLoop(start_time=5.0)
    with pytest.raises(SimulationError):
        loop.post_at(4.0, lambda: None)
    with pytest.raises(SimulationError):
        loop.post_later(-0.1, lambda: None)


def test_loop_not_reentrant():
    loop = EventLoop()

    def reenter():
        with pytest.raises(SimulationError):
            loop.run()

    loop.call_later(0.0, reenter)
    loop.run()


def test_clear_drops_what_is_queued_and_keeps_the_loop_usable():
    loop = EventLoop()
    fired = []
    kept = loop.call_later(1.0, fired.append, "timer")
    cancelled = loop.call_later(2.0, fired.append, "cancelled")
    cancelled.cancel()
    loop.post_later(3.0, fired.append, "delivery")
    loop.run_until(0.5)
    loop.clear()
    assert loop.pending_events == 0
    assert loop.now == 0.5  # the clock is not touched
    # Handles of dropped events read as finished: a late cancel is a no-op.
    kept.cancel()
    assert loop.pending_events == 0
    assert loop.run() == 0 and fired == []
    loop.post_later(0.1, fired.append, "after")
    loop.run()
    assert fired == ["after"]


def test_clear_refused_while_running():
    loop = EventLoop()

    def clear_from_inside():
        with pytest.raises(SimulationError):
            loop.clear()

    loop.call_later(0.0, clear_from_inside)
    loop.run()

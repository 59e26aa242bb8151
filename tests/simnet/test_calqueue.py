"""Property tests: CalendarQueue pops in exact heapq ``(when, seq)`` order.

The batched kernel's byte-identity argument rests entirely on the
calendar queue being order-equivalent to the flat heap the solo engine
uses.  These tests drive randomized workloads — including exact time
ties, lazy cancellations, and callbacks that re-post into the bucket
currently being served — and assert the pop sequence matches a heapq
reference element for element.
"""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.batch import BatchEventLoop
from repro.simnet.calqueue import CalendarQueue
from repro.simnet.engine import EventLoop

# Times deliberately mix sub-bucket clusters, wide spreads, and exact
# repeats (ties) around the default 1 ms bucket edges.
time_strategy = st.one_of(
    st.floats(min_value=0.0, max_value=0.01, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.001, 0.002, 0.0005, 0.25, 1.0, 2.9999999, 3.0]),
)


class TestPopOrderMatchesHeapq:
    @given(st.lists(time_strategy, min_size=0, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_bulk_push_then_drain(self, times):
        queue = CalendarQueue()
        heap = []
        for seq, when in enumerate(times):
            queue.push((when, seq))
            heapq.heappush(heap, (when, seq))
        assert len(queue) == len(heap)
        popped = []
        while True:
            entry = queue.pop()
            if entry is None:
                break
            popped.append(entry)
        reference = [heapq.heappop(heap) for _ in range(len(heap))]
        assert popped == reference
        assert len(queue) == 0
        assert not queue

    @given(
        st.lists(
            st.tuples(st.sampled_from(["push", "pop"]), time_strategy),
            min_size=0,
            max_size=400,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_push_pop(self, ops):
        """Pops interleaved with pushes — the re-entrant insert path.

        Pushes racing the active bucket may only schedule at/after the
        last popped time (the engine's no-past-scheduling contract), so
        the pushed time is clamped to the reference queue's frontier.
        """
        queue = CalendarQueue()
        heap = []
        seq = itertools.count()
        frontier = 0.0
        for op, when in ops:
            if op == "push":
                when = max(when, frontier)
                s = next(seq)
                queue.push((when, s))
                heapq.heappush(heap, (when, s))
            else:
                expected = heapq.heappop(heap) if heap else None
                got = queue.pop()
                assert got == expected
                if got is not None:
                    frontier = got[0]
            assert len(queue) == len(heap)
        drained = []
        while queue:
            drained.append(queue.pop())
        assert drained == [heapq.heappop(heap) for _ in range(len(heap))]

    @given(st.lists(st.tuples(time_strategy, time_strategy), min_size=1, max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_reposts_from_consumer(self, pairs):
        """Each popped entry re-posts a follow-up relative to its time.

        This exercises the ``_incoming`` side list: follow-ups landing in
        the bucket currently being drained must interleave exactly as the
        heapq reference interleaves them.
        """
        queue = CalendarQueue()
        heap = []
        seq = itertools.count()
        followup = {}
        for when, delta in pairs:
            s = next(seq)
            queue.push((when, s))
            heapq.heappush(heap, (when, s))
            followup[s] = delta
        while True:
            got = queue.pop()
            expected = heapq.heappop(heap) if heap else None
            assert got == expected
            if got is None:
                break
            delta = followup.pop(got[1], None)
            if delta is not None:
                # One generation of re-posts, scheduled at or after "now".
                when = got[0] + delta
                s = next(seq)
                queue.push((when, s))
                heapq.heappush(heap, (when, s))

    @given(st.integers(min_value=1, max_value=50), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_far_future_sparse_timers(self, count, rnd):
        """Far timers (seconds out, sparse buckets) keep exact order."""
        queue = CalendarQueue(bucket_width=0.001)
        heap = []
        for seq in range(count):
            when = rnd.uniform(0.0, 3600.0)
            queue.push((when, seq))
            heapq.heappush(heap, (when, seq))
        out = []
        while queue:
            out.append(queue.pop())
        assert out == [heapq.heappop(heap) for _ in range(len(heap))]


class TestQueueBasics:
    def test_empty_pop(self):
        queue = CalendarQueue()
        assert queue.pop() is None
        assert len(queue) == 0

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            CalendarQueue(bucket_width=0.0)
        with pytest.raises(ValueError):
            CalendarQueue(bucket_width=-1.0)

    def test_bucket_width_property(self):
        assert CalendarQueue(bucket_width=0.25).bucket_width == 0.25


# ---------------------------------------------------------------------------
# Kernel-level equivalence: BatchEventLoop members vs a solo EventLoop on the
# same randomized program of posts, cancellations, and re-posts from inside
# callbacks.
# ---------------------------------------------------------------------------

program_strategy = st.lists(
    st.tuples(
        st.sampled_from(["post", "call", "cancel", "chain"]),
        st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _install_program(loop, program):
    """Schedule a deterministic program on an EventLoop-compatible loop.

    Returns the log list that callbacks append ``(tag, now)`` pairs to.
    """
    log = []
    handles = []

    def fire(tag):
        log.append((tag, loop.now))

    def chain(tag, delay):
        log.append((tag, loop.now))
        loop.post_later(delay, fire, tag + "'")
        # Cancel the oldest still-pending handle, from inside a callback.
        for h in handles:
            if not h.cancelled:
                h.cancel()
                break

    for i, (kind, when, delay) in enumerate(program):
        tag = f"{kind}{i}"
        if kind == "post":
            loop.post_at(when, fire, tag)
        elif kind == "call":
            handles.append(loop.call_at(when, fire, tag))
        elif kind == "cancel":
            h = loop.call_at(when, fire, tag)
            if i % 2:
                h.cancel()
            handles.append(h)
        else:
            loop.post_at(when, chain, tag, delay)
    return log


def _solo_run(program):
    loop = EventLoop()
    log = _install_program(loop, program)
    loop.run()
    return log, loop


@given(program_strategy)
@settings(max_examples=150, deadline=None)
def test_batch_member_matches_solo_eventloop(program):
    expected, solo = _solo_run(program)

    kernel = BatchEventLoop()
    member = kernel.member()
    log = _install_program(member, program)
    kernel.run()

    assert log == expected
    assert member.processed_events == solo.processed_events
    assert member.pending_events == solo.pending_events == 0


@given(program_strategy, program_strategy, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_two_members_do_not_interfere(program_a, program_b, seed):
    """Two members batched together each match their solo execution."""
    expected_a, _ = _solo_run(program_a)
    expected_b, _ = _solo_run(program_b)

    kernel = BatchEventLoop()
    member_a = kernel.member()
    member_b = kernel.member()
    # Registration order must not matter: install in random order.
    if random.Random(seed).random() < 0.5:
        log_b = _install_program(member_b, program_b)
        log_a = _install_program(member_a, program_a)
    else:
        log_a = _install_program(member_a, program_a)
        log_b = _install_program(member_b, program_b)
    kernel.run()
    assert log_a == expected_a
    assert log_b == expected_b

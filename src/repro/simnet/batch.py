"""Batched multi-session event loop over a shared calendar queue.

:class:`BatchEventLoop` runs *many* independent sessions inside one
scheduler.  Each session attaches to a :class:`MemberLoop` — an object
exposing the exact :class:`repro.simnet.engine.EventLoop` surface
(``now``, ``call_at``, ``call_later``, ``post_at``, ``post_later``,
``pending_events``, ``processed_events``) — while all timers land in one
shared :class:`~repro.simnet.calqueue.CalendarQueue`.  Per-event Python
overhead (heap discipline, bookkeeping) then amortises across the whole
batch instead of being paid per session.

Byte-identity with the solo engine
----------------------------------
Sessions never exchange events, so correctness reduces to a per-member
guarantee: every member observes its own events in the same relative
``(when, seq)`` order, and the same ``now``, as it would on a private
``EventLoop``.  The kernel allocates ``seq`` from one global counter, so
for any single member the sequence numbers are a strictly increasing
subsequence of the global order — ties *within* a member resolve exactly
as they would solo, and cross-member interleaving is invisible to the
sessions themselves.  The property tests in
``tests/simnet/test_calqueue.py`` pin the scheduler order.

No replay runs here
-------------------
Sessions replay one at a time on the solo :class:`EventLoop` (see
EXPERIMENTS.md, "One loop, one chain at a time"); the session driver
that armed members with slice horizons is gone.  What is left is the
free-running kernel — members execute until the queue drains — and it
is left only because ``bench/drives.py`` times it by name: it goes with
the benchmark PR of ROADMAP item 1(a).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro import sanitize as _sanitize
from repro.simnet.calqueue import CalendarQueue
from repro.simnet.engine import Event, SimulationError


class MemberLoop:
    """One session's view of a :class:`BatchEventLoop`.

    API-compatible with :class:`repro.simnet.engine.EventLoop` for every
    operation simulation components perform.  Driving the loop is the
    kernel's job: :meth:`run` / :meth:`run_until` raise, because a member
    cannot advance without its siblings.
    """

    __slots__ = ("_kernel", "_now", "_pending", "_processed")

    def __init__(self, kernel: "BatchEventLoop", start_time: float = 0.0) -> None:
        self._kernel = kernel
        self._now = start_time
        self._pending = 0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time as observed by this member."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events this member has queued."""
        return self._pending

    @property
    def processed_events(self) -> int:
        """Total callbacks executed for this member."""
        return self._processed

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when:.6f}, clock is at t={self._now:.6f}"
            )
        kernel = self._kernel
        seq = kernel._seq
        kernel._seq = seq + 1
        event = Event(when, seq, callback, args, self)  # type: ignore[arg-type]
        kernel._queue.push((when, seq, self, event, callback, args))
        self._pending += 1
        return event

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    def post_at(self, when: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`call_at`: no :class:`Event` handle."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when:.6f}, clock is at t={self._now:.6f}"
            )
        kernel = self._kernel
        seq = kernel._seq
        kernel._seq = seq + 1
        kernel._queue.push((when, seq, self, None, callback, args))
        self._pending += 1

    def post_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`call_later`: no :class:`Event` handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.post_at(self._now + delay, callback, *args)

    def run(self, max_events: Optional[int] = None) -> int:
        raise SimulationError("a MemberLoop is driven by its BatchEventLoop")

    def run_until(self, deadline: float, max_events: Optional[int] = None) -> int:
        raise SimulationError("a MemberLoop is driven by its BatchEventLoop")


class BatchEventLoop:
    """Deterministic scheduler shared by a batch of member sessions.

    Parameters
    ----------
    bucket_width:
        Calendar-queue bucket granularity in simulated seconds (see
        :class:`~repro.simnet.calqueue.CalendarQueue`).
    """

    __slots__ = ("_queue", "_seq", "_members", "_running", "_processed")

    def __init__(self, bucket_width: float = 0.001) -> None:
        self._queue = CalendarQueue(bucket_width)
        self._seq = 0
        self._members: List[MemberLoop] = []
        self._running = False
        self._processed = 0

    def member(self, start_time: float = 0.0) -> MemberLoop:
        """Create and register a new member loop."""
        m = MemberLoop(self, start_time)
        self._members.append(m)
        return m

    @property
    def members(self) -> Tuple[MemberLoop, ...]:
        return tuple(self._members)

    @property
    def pending_events(self) -> int:
        """Not-yet-cancelled events across all members.  O(members)."""
        return sum(m._pending for m in self._members)

    @property
    def processed_events(self) -> int:
        """Total callbacks executed across all members."""
        return self._processed

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the shared queue in global ``(when, seq)`` order.

        Returns the number of callbacks executed by this call.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        # Read once: the clock-monotonicity check below costs one
        # comparison per event when enabled (well inside the 10% budget),
        # and its counter is bulk-updated on exit.
        sanitizer = _sanitize.ACTIVE
        self._running = True
        executed = 0
        queue = self._queue
        pop = queue.pop
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                entry = pop()
                if entry is None:
                    break
                ev = entry[3]
                if ev is not None and ev.cancelled:
                    continue
                member = entry[2]
                when = entry[0]
                if sanitizer is not None and when < member._now:
                    sanitizer.check_clock(member._now, when)
                if ev is not None:
                    ev._finished = True
                member._pending -= 1
                member._now = when
                entry[4](*entry[5])
                executed += 1
                member._processed += 1
        finally:
            if sanitizer is not None:
                counts = sanitizer.checks_run
                counts["clock_monotonic"] = counts.get("clock_monotonic", 0) + executed
            self._processed += executed
            self._running = False
        return executed

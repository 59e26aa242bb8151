"""Event loop with a simulated clock.

The engine is a classic calendar queue: callbacks are scheduled at absolute
simulated times and executed in non-decreasing time order.  Ties are broken
by scheduling order so runs are deterministic.

Typical use::

    loop = EventLoop()
    loop.call_later(0.5, hello)          # run ``hello()`` at t=0.5s
    loop.run()                           # drain every pending event
    assert loop.now >= 0.5

Components built on top of the engine (links, pacers, retransmission
timers) never consult wall-clock time; they only ever observe
:attr:`EventLoop.now`.

The heap stores plain ``(time, seq, event, callback, args)`` tuples.
``event`` is ``None`` for fire-and-forget callbacks scheduled through
:meth:`EventLoop.post_at` / :meth:`EventLoop.post_later` — the common
case for per-packet work (link serialisation, delivery), which avoids an
``Event`` allocation per packet.  ``seq`` is unique, so tuple comparison
never reaches the callback.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(Exception):
    """Raised for invalid interactions with the event loop."""


class Event:
    """Handle for a scheduled callback.

    Supports cancellation; a cancelled event stays in the heap but is
    skipped when popped (lazy deletion), which keeps cancellation O(1).
    ``finished`` turns true once the callback has run (or the loop
    dropped the event in :meth:`EventLoop.clear`).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_loop", "finished")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        loop: Optional["EventLoop"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._loop = loop
        self.finished = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self.finished and self._loop is not None:
            self._loop._pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class EventLoop:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in seconds.
    """

    __slots__ = ("_now", "_heap", "_seq", "_running", "_processed", "_pending")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        self._pending = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1)."""
        return self._pending

    @property
    def processed_events(self) -> int:
        """Total number of callbacks executed so far."""
        return self._processed

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``.

        Scheduling in the past is an error: the simulation clock never
        rewinds, so such an event could only fire late and silently skew
        results.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when:.6f}, clock is at t={self._now:.6f}"
            )
        event = Event(when, next(self._seq), callback, args, self)
        heapq.heappush(self._heap, (when, event.seq, event, callback, args))
        self._pending += 1
        return event

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    def post_at(self, when: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`call_at`: no :class:`Event` handle.

        Use for the non-cancellable common case (per-packet link events);
        it skips the handle allocation entirely.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at t={when:.6f}, clock is at t={self._now:.6f}"
            )
        heapq.heappush(self._heap, (when, next(self._seq), None, callback, args))
        self._pending += 1

    def post_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`call_later`: no :class:`Event` handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # ``now + delay`` never precedes ``now`` for a non-negative delay,
        # so the entry goes straight on the heap: one frame per link event.
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), None, callback, args))
        self._pending += 1

    def clear(self) -> None:
        """Drop every queued event without running it.

        What a finished simulation leaves queued — a cancelled timer, a
        delivery still in flight — holds bound methods of the objects
        that scheduled it, and those objects hold the loop.  Whoever
        owns the loop calls this once the run is over, so both sides die
        by reference count.  Handles of dropped events read as finished:
        a late ``cancel()`` leaves :attr:`pending_events` alone.
        """
        if self._running:
            raise SimulationError("cannot clear a running event loop")
        for entry in self._heap:
            if entry[2] is not None:
                entry[2].finished = True
        self._heap.clear()
        self._pending = 0

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue until empty (or ``max_events`` callbacks ran).

        Returns the number of callbacks executed by this call.
        """
        return self._run(until=None, max_events=max_events)

    def run_until(self, deadline: float, max_events: Optional[int] = None) -> int:
        """Run events with ``time <= deadline``, then advance the clock to it.

        A call that stopped on ``max_events`` with events at or before
        ``deadline`` still queued leaves the clock at the last event it
        ran: advancing past them would make the next run pop an earlier
        event and move ``now`` backwards.

        Returns the number of callbacks executed by this call.
        """
        executed = self._run(until=deadline, max_events=max_events)
        heap = self._heap
        # ``_run`` never leaves a cancelled entry at the head.
        if self._now < deadline and not (heap and heap[0][0] <= deadline):
            self._now = deadline
        return executed

    def _run(self, until: Optional[float], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        # No deadline runs to an infinite one, no budget to one never met.
        horizon = math.inf if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        try:
            while heap:
                entry = heap[0]
                event = entry[2]
                if event is not None and event.cancelled:
                    heappop(heap)
                    continue
                when = entry[0]
                if when > horizon or executed >= budget:
                    break
                heappop(heap)
                self._pending -= 1
                if event is not None:
                    event.finished = True
                self._now = when
                entry[3](*entry[4])
                executed += 1
        finally:
            self._processed += executed
            self._running = False
        return executed

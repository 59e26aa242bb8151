"""Run many StreamingSessions batched inside one BatchEventLoop.

:func:`run_sessions` is a drop-in replacement for
``[session.run() for session in sessions]`` that executes every session
inside a single :class:`~repro.simnet.batch.BatchEventLoop`, amortising
scheduler overhead across the batch.  Results are **byte-identical** to
the solo path: each session observes its own clock, its own event order,
and its own rng stream exactly as it would on a private ``EventLoop``
(asserted end-to-end by ``tests/cdn/test_batchrun.py``).

There is one drive loop, :meth:`StreamingSession.drive`, and it runs
here unchanged: it yields the deadline of each slice it needs, and where
the solo path answers with ``loop.run_until(deadline,
max_events=_SLICE_EVENTS)``, a :class:`_SessionDriver` answers by arming
the session's member with that horizon and budget.  When the kernel
reports the slice over (``_on_boundary`` / ``_on_drained``) the driver
applies ``run_until``'s clock rule and asks the loop again — every
decision about done, pending, timeout and the cookie flush stays in
``drive``, and the per-event fast path inside the kernel is untouched.

Which sessions batch is decided by :func:`batching_applies`, from what
the code observes: with a trace bus active (``WIRA_TRACE=1``) sessions
run solo — the bus scopes events with a per-session context manager,
which cannot interleave — and a single session has nothing to share a
scheduler with.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, cast

from repro import obs as _obs
from repro.cdn.session import _SLICE_EVENTS, SessionResult, StreamingSession
from repro.simnet.batch import BatchEventLoop, MemberLoop
from repro.simnet.engine import EventLoop


class _SessionDriver:
    """Executes one session's drive loop on a kernel member."""

    __slots__ = ("member", "steps", "result")

    def __init__(self, session: StreamingSession, member: MemberLoop) -> None:
        self.member = member
        self.steps = session.drive(cast(EventLoop, member))
        self.result: Optional[SessionResult] = None
        member._on_boundary = self._on_boundary
        member._on_drained = self._on_drained

    def advance(self) -> None:
        """Arm the next slice the drive loop asks for, or finish the member."""
        member = self.member
        try:
            member._horizon = next(self.steps)
            member._budget = _SLICE_EVENTS
        except StopIteration as finished:
            self.result = finished.value
            member._finished = True
            member._pending = 0

    # -- kernel hooks: ``run_until``'s clock rule, then the drive loop ------

    def _on_boundary(self, when: float) -> None:
        """The slice is over; the member's next event fires at ``when``.

        Solo equivalent: ``run_until`` returned — past its deadline
        (``when`` lies beyond it, so the clock moves to the deadline) or
        on ``max_events`` with ``when`` still due (the clock stays put).
        One ``advance`` only: the kernel re-queues the entry and pops
        again, because the drive loop may just have posted events (the
        cookie flush) that precede ``when``.
        """
        member = self.member
        if when > member._horizon:
            member._now = member._horizon
        self.advance()

    def _on_drained(self) -> None:
        """The member has no pending events left.

        Solo equivalent: ``run_until`` ran the heap dry and moved the
        clock to its deadline.
        """
        self.member._now = self.member._horizon
        self.advance()


def batching_applies(count: int) -> bool:
    """Whether ``count`` concurrent sessions should share one kernel.

    The one place batched-vs-solo is decided, from what the code
    observes: a trace bus scopes events per session and cannot
    interleave them, and a single session (or a block of one chain,
    whose waves hold one session each) has nothing to amortise over.
    """
    return _obs.ACTIVE is None and count > 1


def run_sessions(sessions: Sequence[StreamingSession]) -> List[SessionResult]:
    """Run sessions batched; byte-identical to running each solo.

    Takes the solo path — the reference — when
    :func:`batching_applies` says batching cannot help.
    """
    if not batching_applies(len(sessions)):
        return [session.run() for session in sessions]
    kernel = BatchEventLoop()
    drivers = [_SessionDriver(session, kernel.member()) for session in sessions]
    for driver in drivers:
        driver.advance()
    kernel.run()
    results: List[SessionResult] = []
    for driver in drivers:
        if driver.result is None:  # pragma: no cover - defensive
            raise RuntimeError("batched session did not finalize")
        results.append(driver.result)
    return results

"""Run many StreamingSessions batched inside one BatchEventLoop.

:func:`run_sessions` is a drop-in replacement for
``[session.run() for session in sessions]`` that executes every session
inside a single :class:`~repro.simnet.batch.BatchEventLoop`, amortising
scheduler overhead across the batch.  Results are **byte-identical** to
the solo path: each session observes its own clock, its own event order,
and its own rng stream exactly as it would on a private ``EventLoop``
(asserted end-to-end by ``tests/cdn/test_batchrun.py``).

Each session gets a :class:`_SessionDriver` — a small state machine that
replicates ``StreamingSession``'s solo drive loop *exactly*, because the
solo loop's observable behaviour leaks into results via ``loop.now``
reads inside callbacks:

* the run is sliced into ``run_until(min(timeout, now + 0.25),
  max_events=100_000)`` calls; ``run_until`` advances the clock to its
  deadline unless it stopped on ``max_events`` with events at or before
  the deadline still pending;
* ``client.done`` / pending / timeout are only consulted at slice
  boundaries;
* the cookie-flush phase drains until ``now + max(4·rtt, 0.2)`` with the
  same slice discipline.

The driver mirrors those decision points through the kernel's
``_on_boundary`` / ``_on_drained`` hooks, keeping the per-event fast
path inside the kernel untouched.

Which sessions batch is decided by :func:`batching_applies`, from what
the code observes: with a trace bus active (``WIRA_TRACE=1``) sessions
run solo — the bus scopes events with a per-session context manager,
which cannot interleave — and a single session has nothing to share a
scheduler with.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, cast

from repro import obs as _obs
from repro.cdn.session import (
    _SLICE_EVENTS,
    _SLICE_SECONDS,
    LiveSession,
    SessionResult,
    StreamingSession,
)
from repro.simnet.batch import BatchEventLoop, MemberLoop
from repro.simnet.engine import EventLoop

_PHASE_RUN = 0
_PHASE_FLUSH = 1
_PHASE_DONE = 2


class _SessionDriver:
    """Replays the solo drive loop for one batched session."""

    __slots__ = ("session", "member", "live", "phase", "pushed", "result")

    def __init__(
        self, session: StreamingSession, member: MemberLoop, live: LiveSession
    ) -> None:
        self.session = session
        self.member = member
        self.live = live
        self.phase = _PHASE_RUN
        self.pushed = False
        self.result: Optional[SessionResult] = None
        member._on_boundary = self._on_boundary
        member._on_drained = self._on_drained

    # -- slice bookkeeping -------------------------------------------------

    def start(self) -> None:
        """Evaluate the drive loop's condition for the first time."""
        if not self._begin_run_slice():
            self._enter_flush()

    def _begin_run_slice(self) -> bool:
        """One iteration of the solo ``while`` condition; arm a slice."""
        member = self.member
        session = self.session
        if (
            not self.live.client.done
            and member._pending > 0
            and member._now < session.timeout
        ):
            member._horizon = min(session.timeout, member._now + _SLICE_SECONDS)
            member._budget = _SLICE_EVENTS
            return True
        return False

    # -- kernel hooks ------------------------------------------------------

    def _on_boundary(self, when: float) -> None:
        """The slice is over; the member's next event fires at ``when``.

        Solo equivalent: ``run_until`` returned — on its ``until`` check
        (``when`` lies beyond the deadline, so it set ``now = deadline``)
        or on ``max_events`` with ``when`` still due (the clock stays
        put) — and the drive loop re-evaluated.  Empty slices
        fast-forward in a loop until the event is reachable or the phase
        ends.
        """
        member = self.member
        if self.phase == _PHASE_RUN:
            while True:
                if when > member._horizon:
                    member._now = member._horizon
                if not self._begin_run_slice():
                    self._enter_flush()
                    return
                if when <= member._horizon:
                    return
        elif self.phase == _PHASE_FLUSH:
            # The flush loop runs while ``now < drained``.
            if when > member._horizon:
                member._now = member._horizon
            if member._now < member._horizon:
                member._budget = _SLICE_EVENTS
            else:
                self._finalize()

    def _on_drained(self) -> None:
        """The member has no pending events left.

        Solo equivalent: ``run_until`` ran the heap dry, set ``now`` to
        its deadline, and the drive loop exited on the pending check.
        """
        member = self.member
        member._now = member._horizon
        if self.phase == _PHASE_RUN:
            self._enter_flush()
        elif self.phase == _PHASE_FLUSH:
            self._finalize()

    # -- phase transitions -------------------------------------------------

    def _enter_flush(self) -> None:
        """End-of-session cookie push, exactly as the solo driver does."""
        session = self.session
        member = self.member
        live = self.live
        self.phase = _PHASE_FLUSH
        if live.client.done and session.client_supports_cookies:
            self.pushed = live.server.flush_cookie()
            if self.pushed:
                drained = member._now + max(4 * session.conditions.rtt, 0.2)
                if member._pending > 0 and member._now < drained:
                    member._horizon = drained
                    member._budget = _SLICE_EVENTS
                    return
        self._finalize()

    def _finalize(self) -> None:
        member = self.member
        live = self.live
        self.phase = _PHASE_DONE
        cookie_delivered = self.pushed and live.client.metrics.cookies_received > 0
        self.result = self.session._finalize(live, cookie_delivered)
        member._finished = True
        member._pending = 0


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
    drivers: List[_SessionDriver] = []
    for session in sessions:
        member = kernel.member()
        live = session._setup(cast(EventLoop, member))
        drivers.append(_SessionDriver(session, member, live))
    for driver in drivers:
        driver.start()
    kernel.run()
    results: List[SessionResult] = []
    for driver in drivers:
        if driver.result is None:  # pragma: no cover - defensive
            raise RuntimeError("batched session did not finalize")
        results.append(driver.result)
    return results

"""Runtime-sanitizer overhead on the event-loop hot path.

The one speed assertion ``python -m bench`` has no successor for: the
event loops carry the sanitizer's ``clock_monotonic`` comparison inside
their one run loop, so the enabled cost must stay within budget.  Every
other machinery number (events/s, sessions/s, cache hits) is a ``bench``
drive or workload.
"""

import time

from repro import sanitize
from repro.simnet.engine import EventLoop


def _drive(n):
    """Events/s on a mixed workload: fire-and-forget chains (the
    per-packet pattern), plus cancellable timers that mostly get
    cancelled (the retransmission-timer pattern)."""
    loop = EventLoop()
    remaining = [n]
    timer = [None]

    def tick():
        if remaining[0] <= 0:
            return
        remaining[0] -= 1
        loop.post_later(0.001, tick)
        if remaining[0] % 8 == 0:
            if timer[0] is not None:
                timer[0].cancel()
            timer[0] = loop.call_later(5.0, lambda: None)

    for i in range(32):
        loop.post_later(0.001 * (i + 1), tick)
    start = time.perf_counter()
    loop.run()
    elapsed = time.perf_counter() - start
    return loop.processed_events / elapsed


class TestSanitizerOverhead:
    """The acceptance budget: <= 10% throughput loss with
    ``WIRA_SANITIZE=1`` (one inlined comparison per event)."""

    N_EVENTS = 200_000
    BUDGET = 0.10

    def test_enabled_overhead_within_budget(self, capsys):
        san = sanitize.TransportSanitizer()
        _drive(20_000)  # warm-up
        disabled = enabled = 0.0
        # Alternate the two modes so a host that changes speed mid-test
        # moves both readings, not one.
        for _ in range(3):
            with sanitize.suppressed():
                disabled = max(disabled, _drive(self.N_EVENTS))
            with sanitize.sanitized(san):
                enabled = max(enabled, _drive(self.N_EVENTS))
        assert san.checks_run["clock_monotonic"] > self.N_EVENTS  # genuinely on

        overhead = (disabled - enabled) / disabled
        with capsys.disabled():
            print(
                f"\nSanitizer overhead: disabled {disabled:,.0f} ev/s, "
                f"enabled {enabled:,.0f} ev/s ({overhead:+.1%})"
            )
        # Double the budget as the assertion ceiling: best-of-3 absorbs
        # most scheduler noise, but shared CI runners still jitter a few
        # percent either way.
        assert overhead <= 2 * self.BUDGET, (
            f"sanitizer costs {overhead:.1%} event-loop throughput "
            f"(budget {self.BUDGET:.0%})"
        )

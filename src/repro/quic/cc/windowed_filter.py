"""Windowed min/max estimator, as used by BBR.

Tracks the extremum (max or min) of samples over a sliding window
measured in arbitrary "time" units (BBR uses round-trip counts for the
bandwidth filter and seconds for the RTT filter).

The classic implementation — Kathleen Nichols' three-sample filter in
Linux's ``lib/win_minmax.c`` — is approximate: a sample that is dominated
on arrival is discarded, so when the then-best expires the filter can
report a value *below* the true in-window extremum (e.g. max samples
``2.0@t=0, 1.0@t=1, 0.0@t=11`` with a window of 10 yield ``0.0`` instead
of ``1.0``).  This module instead keeps a monotonic deque of candidate
samples, which is exact: ``best`` always equals the true extremum over
samples whose age relative to the newest sample is within the window.
Each sample is appended and popped at most once, so ``update`` remains
amortised O(1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, Tuple, TypeVar

T = TypeVar("T", int, float)


class WindowedFilter(Generic[T]):
    """Exact sliding-window extremum filter.

    Parameters
    ----------
    window:
        Window length in the caller's time unit.  A sample at time ``t``
        is considered expired once a newer sample arrives at
        ``now > t + window``.
    is_max:
        ``True`` for a max filter (bandwidth), ``False`` for min (RTT).
    """

    __slots__ = ("window", "is_max", "_samples", "best")

    def __init__(self, window: float, is_max: bool = True) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.is_max = is_max
        # (time, value) candidates: times increasing, values strictly
        # worsening front-to-back (front is the current best).
        self._samples: Deque[Tuple[float, T]] = deque()
        #: The current extremum, ``None`` before any sample: the front
        #: candidate, kept by :meth:`update`.
        self.best: Optional[T] = None

    def _better_or_equal(self, a: T, b: T) -> bool:
        return a >= b if self.is_max else a <= b

    def update(self, value: T, time: float) -> T:
        """Insert a sample at ``time``; returns the current best."""
        samples = self._samples
        # Newer-and-better samples dominate older-and-worse ones: any
        # candidate the new sample beats can never be the windowed
        # extremum again (it would expire first).
        while samples and self._better_or_equal(value, samples[-1][1]):
            samples.pop()
        samples.append((time, value))
        # Evict candidates that have aged out of the window.
        window = self.window
        while time - samples[0][0] > window:
            samples.popleft()
        best = samples[0][1]
        self.best = best
        return best

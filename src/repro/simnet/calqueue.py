"""Calendar-queue scheduler with an exact ``(when, seq)`` total order.

:class:`CalendarQueue` is the shared timer structure behind
:class:`repro.simnet.batch.BatchEventLoop`.  It stores opaque *entries* —
tuples whose first two fields are ``(when, seq)`` with ``seq`` unique —
and pops them in exactly the order a ``heapq`` of the same tuples would,
which is the property the batched kernel needs to stay byte-identical
with :class:`repro.simnet.engine.EventLoop` (see the property tests in
``tests/simnet/test_calqueue.py``).

Design
------
Near-future events (the pacer ticks and link serialisation/delivery
events that dominate streaming traffic) land together in *buckets* of
``bucket_width`` simulated seconds, keyed by ``int(when / width)``:

* ``push`` appends to the target bucket — O(1) amortised; a heap of
  bucket **indices** is touched only on an empty→non-empty transition,
* ``pop`` activates the minimum-index bucket once, sorts it once
  (Timsort over an almost-sorted batch), and then serves entries by
  popping from the end of the descending-sorted list — O(1) per event,
* callbacks that re-post into the *active* bucket (a pacer re-arming
  within the same millisecond) append to an ``_incoming`` side list that
  is merged and re-sorted only when non-empty, so the steady state pays
  one truthiness test per pop.

Far-future timers (PTO/idle timers seconds out) degenerate to sparse
singleton buckets, i.e. one bucket-heap operation per event — that heap
*is* the heapq fallback for far timers, with the same O(log n) bound as
the flat heap it replaces, so pathological timer spreads never regress
below the old engine.

Entries must have non-negative ``when`` (simulated time starts at zero;
``int()`` truncation is only order-preserving for non-negative input).
The queue itself never interprets fields beyond ``entry[1]`` — lazy
cancellation, member bookkeeping and the like belong to the caller.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

#: An opaque scheduler entry; ordered by its first two fields.
Entry = Tuple[Any, ...]


class CalendarQueue:
    """Min-queue over ``(when, seq)``-prefixed tuples.

    Parameters
    ----------
    bucket_width:
        Bucket granularity in simulated seconds.  The default (1 ms) is
        tuned for streaming workloads where pacer and link events cluster
        well below one millisecond apart; correctness does not depend on
        the choice, only the amortisation factor does.
    """

    __slots__ = ("_width", "_inv_width", "_buckets", "_order", "_current", "_incoming", "_active_idx", "_len")

    def __init__(self, bucket_width: float = 0.001) -> None:
        if bucket_width <= 0.0:
            raise ValueError("bucket width must be positive")
        self._width = bucket_width
        self._inv_width = 1.0 / bucket_width
        #: Future buckets by index; values are unsorted append lists.
        self._buckets: Dict[int, List[Entry]] = {}
        #: Min-heap of bucket indices present in ``_buckets``.
        self._order: List[int] = []
        #: The active bucket, sorted descending; served from the end.
        self._current: List[Entry] = []
        #: Entries pushed at or below the active bucket while it drains.
        self._incoming: List[Entry] = []
        #: Index of the bucket currently being served (-1 before first pop).
        self._active_idx = -1
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    @property
    def bucket_width(self) -> float:
        return self._width

    def push(self, entry: Entry) -> None:
        """Insert an entry.  O(1) amortised for near-future times."""
        idx = int(entry[0] * self._inv_width)
        if idx <= self._active_idx:
            # Into (or before) the bucket being served: stage on the side
            # list; ``pop`` merges it ahead of everything else.  Entries
            # below the active bucket can only be correct if the caller's
            # clock allows them (the engine forbids past scheduling), and
            # they still pop before the active bucket's remainder.
            self._incoming.append(entry)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heapq.heappush(self._order, idx)
            else:
                bucket.append(entry)
        self._len += 1

    def pop(self) -> Optional[Entry]:
        """Remove and return the minimum entry, or ``None`` when empty."""
        current = self._current
        if self._incoming:
            current.extend(self._incoming)
            self._incoming.clear()
            current.sort(reverse=True)
        while not current:
            if not self._order:
                return None
            idx = heapq.heappop(self._order)
            self._active_idx = idx
            current = self._current = self._buckets.pop(idx)
            current.sort(reverse=True)
        self._len -= 1
        return current.pop()

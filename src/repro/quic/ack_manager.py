"""Receiver-side ACK generation.

Tracks received packet numbers, coalesces them into ranges, and decides
when an ACK should be emitted: immediately on every second ack-eliciting
packet or on reordering, otherwise after ``max_ack_delay`` (RFC 9000
§13.2 behaviour, simplified).

Received numbers are kept the way an ACK frame states them — as disjoint
inclusive runs, ascending, in the parallel lists ``_lows`` / ``_highs``.
An in-order arrival extends the last run in place; an out-of-order one
bisects to its neighbours and merges.  Building an ACK is then a reversal
of the runs, not a sort of every number ever received.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.quic.frames import AckFrame


class AckManager:
    """Collects received packet numbers and builds ACK frames."""

    def __init__(self, max_ack_delay: float = 0.025, ack_every: int = 2) -> None:
        if ack_every < 1:
            raise ValueError("ack_every must be >= 1")
        self.max_ack_delay = max_ack_delay
        self.ack_every = ack_every
        self._lows: List[int] = []
        self._highs: List[int] = []
        self._largest: Optional[int] = None
        self._largest_recv_time: float = 0.0
        self._unacked_eliciting = 0
        self._ack_pending = False

    @property
    def largest_received(self) -> Optional[int]:
        return self._largest

    def on_packet_received(self, packet_number: int, ack_eliciting: bool, now: float) -> bool:
        """Record a packet; returns True if it is a duplicate."""
        duplicate = self._record(packet_number)
        reordered = self._largest is not None and packet_number < self._largest
        if self._largest is None or packet_number > self._largest:
            self._largest = packet_number
            self._largest_recv_time = now
        if ack_eliciting and not duplicate:
            self._unacked_eliciting += 1
            self._ack_pending = True
            if reordered:
                # Out-of-order arrival: ack immediately to speed recovery.
                self._unacked_eliciting = self.ack_every
        return duplicate

    def _record(self, packet_number: int) -> bool:
        """Fold a packet number into the runs; True if already there."""
        lows = self._lows
        highs = self._highs
        if not highs or packet_number > highs[-1] + 1:
            lows.append(packet_number)
            highs.append(packet_number)
            return False
        if packet_number == highs[-1] + 1:
            highs[-1] = packet_number
            return False
        # Out of order: at or below the last run's top.
        after = bisect_right(lows, packet_number)  # first run starting above
        before = after - 1
        if before >= 0 and packet_number <= highs[before]:
            return True
        # Below the last run's top and inside no run, so a run starts
        # above it: ``after`` is a valid index.
        joins_before = before >= 0 and highs[before] + 1 == packet_number
        joins_after = lows[after] - 1 == packet_number
        if joins_before and joins_after:
            highs[before] = highs[after]
            del lows[after], highs[after]
        elif joins_before:
            highs[before] = packet_number
        elif joins_after:
            lows[after] = packet_number
        else:
            lows.insert(after, packet_number)
            highs.insert(after, packet_number)
        return False

    def ack_deadline(self, now: float) -> Optional[float]:
        """Absolute time by which an ACK must be sent, or ``None``."""
        if not self._ack_pending:
            return None
        if self._unacked_eliciting >= self.ack_every:
            return now
        return self._largest_recv_time + self.max_ack_delay

    def should_ack_now(self, now: float) -> bool:
        deadline = self.ack_deadline(now)
        return deadline is not None and deadline <= now

    def build_ack(self, now: float) -> Optional[AckFrame]:
        """Produce an ACK frame covering everything received so far."""
        if self._largest is None:
            return None
        ranges = self._ranges()
        ack_delay = max(0.0, now - self._largest_recv_time)
        self._unacked_eliciting = 0
        self._ack_pending = False
        return AckFrame(
            largest_acked=self._largest,
            ack_delay_us=int(ack_delay * 1e6),
            ranges=ranges,
        )

    def _ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Received packet numbers as descending inclusive ranges."""
        return tuple(zip(reversed(self._lows), reversed(self._highs)))

"""Receiver-side ACK generation.

Tracks received packet numbers, coalesces them into ranges, and decides
when an ACK should be emitted: immediately on every
:data:`~repro.quic.config.ACK_EVERY`-th ack-eliciting packet or on
reordering, otherwise after :data:`~repro.quic.config.MAX_ACK_DELAY`
(RFC 9000 §13.2 behaviour, simplified).

Received numbers are kept the way an ACK frame states them — as disjoint
inclusive runs, ascending, in the parallel lists ``_lows`` / ``_highs``.
An in-order arrival extends the last run in place; an out-of-order one
bisects to its neighbours and merges.  Building an ACK is then a reversal
of the runs, not a sort of every number ever received.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.quic.config import ACK_EVERY, MAX_ACK_DELAY
from repro.quic.frames import AckFrame


class AckManager:
    """Collects received packet numbers and builds ACK frames."""

    def __init__(self) -> None:
        self._lows: List[int] = []
        self._highs: List[int] = []
        self._largest: Optional[int] = None
        self._largest_recv_time: float = 0.0
        self._unacked_eliciting = 0
        #: An ack-eliciting packet arrived since the last ACK was built.
        self.ack_pending = False

    @property
    def largest_received(self) -> Optional[int]:
        return self._largest

    def on_packet_received(self, packet_number: int, ack_eliciting: bool, now: float) -> bool:
        """Record a packet; returns True if it is a duplicate."""
        largest = self._largest
        if largest is None or packet_number > largest:
            # In order (or past a gap): the last run's top is ``largest``,
            # so the number extends that run or opens one above it.
            if largest is not None and packet_number == largest + 1:
                self._highs[-1] = packet_number
            else:
                self._lows.append(packet_number)
                self._highs.append(packet_number)
            self._largest = packet_number
            self._largest_recv_time = now
            if ack_eliciting:
                self._unacked_eliciting += 1
                self.ack_pending = True
            return False
        duplicate = self._record_below(packet_number)
        if ack_eliciting and not duplicate:
            # New and below the largest: an out-of-order arrival, so
            # ack immediately to speed recovery.
            self._unacked_eliciting = ACK_EVERY
            self.ack_pending = True
        return duplicate

    def _record_below(self, packet_number: int) -> bool:
        """Fold a number at or below the largest into the runs; True if
        already there."""
        lows = self._lows
        highs = self._highs
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
        if not self.ack_pending:
            return None
        if self._unacked_eliciting >= ACK_EVERY:
            return now
        return self._largest_recv_time + MAX_ACK_DELAY

    def build_ack(self, now: float) -> Optional[AckFrame]:
        """Produce an ACK frame covering everything received so far."""
        if self._largest is None:
            return None
        ranges = self._ranges()
        ack_delay = max(0.0, now - self._largest_recv_time)
        self._unacked_eliciting = 0
        self.ack_pending = False
        return AckFrame(
            largest_acked=self._largest,
            ack_delay_us=int(ack_delay * 1e6),
            ranges=ranges,
        )

    def _ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Received packet numbers as descending inclusive ranges."""
        return tuple(zip(reversed(self._lows), reversed(self._highs)))

"""The structured trace bus and its sinks.

One :class:`TraceBus` is installed globally through :mod:`repro.obs`:
hook sites across simnet/quic/core/cdn test a single module attribute
(``obs.ACTIVE``) and pay nothing when tracing is off.  When on,
:meth:`TraceBus.emit` appends a tuple to

* an **in-memory ring buffer** (:attr:`TraceBus.ring`) — always cheap,
  bounded, the recent events of the process oldest first, and
* the **current session buffer** — scoped by :meth:`TraceBus.session`,
  flushed on exit as per-connection JSONL files when a ``trace_dir`` is
  configured.

File layout and determinism
---------------------------
A session labelled ``wira-c3-s1`` involving connections ``ab..`` and
``cd..`` produces ``<dir>/wira-c3-s1--ab...jsonl`` and
``<dir>/wira-c3-s1--cd...jsonl``.  Labels and connection ids are both
derived from seeded state, file contents use canonical JSON encoding,
and each file is written whole by the one flush of the one session it
names — so pool workers flush straight into the directory and a parallel
replay produces a byte-identical trace set to a serial one.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Deque, Dict, Iterator, List, Optional

from repro.obs.events import TraceEvent, encode_record, meta_record

#: Default ring capacity: enough for the tail of any one session without
#: letting a long deployment replay grow memory unboundedly.
DEFAULT_RING_SIZE = 4096


class TraceBus:
    """Typed event fan-in with a ring buffer and optional JSONL output.

    Parameters
    ----------
    trace_dir:
        Directory for per-connection JSONL trace files; ``None`` keeps
        tracing purely in memory (ring + session buffers).
    ring_size:
        Capacity of the ring buffer.
    """

    __slots__ = ("ring", "counts", "trace_dir", "_session_label", "_session_events")

    def __init__(
        self, trace_dir: Optional[Path] = None, ring_size: int = DEFAULT_RING_SIZE
    ) -> None:
        self.ring: Deque[TraceEvent] = deque(maxlen=ring_size)
        self.counts: Dict[str, int] = {}
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._session_label: Optional[str] = None
        self._session_events: Optional[List[TraceEvent]] = None

    # ------------------------------------------------------------------
    # Hot path

    def emit(self, time: float, name: str, conn: str, data: Dict[str, object]) -> None:
        """Record one event.  Kept to appends and one dict update."""
        event = (time, name, conn, data)
        self.ring.append(event)
        self.counts[name] = self.counts.get(name, 0) + 1
        if self._session_events is not None:
            self._session_events.append(event)

    # ------------------------------------------------------------------
    # Scoping

    @contextmanager
    def session(self, label: str) -> Iterator[List[TraceEvent]]:
        """Collect events for one streaming session.

        Yields the (live) event list; on exit the events are flushed to
        per-connection JSONL files when a ``trace_dir`` is configured.
        Sessions do not nest — the previous buffer is restored on exit,
        so an accidental nested scope loses nothing but attributes inner
        events to the inner label.
        """
        previous_label, previous_events = self._session_label, self._session_events
        self._session_label = label
        self._session_events = []
        try:
            yield self._session_events
        finally:
            events = self._session_events
            self._session_label, self._session_events = previous_label, previous_events
            if self.trace_dir is not None and events:
                self._flush_session(label, events)

    # ------------------------------------------------------------------
    # Sinks

    def _flush_session(self, label: str, events: List[TraceEvent]) -> None:
        """Write one session's events as per-connection JSONL files."""
        by_conn: Dict[str, List[TraceEvent]] = {}
        for event in events:
            by_conn.setdefault(event[2], []).append(event)
        assert self.trace_dir is not None
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        for conn in sorted(by_conn):
            conn_events = by_conn[conn]
            lines = [meta_record(conn_events[0][0], conn, label)]
            lines.extend(
                encode_record(time, name, event_conn, data)
                for time, name, event_conn, data in conn_events
            )
            path = self.trace_dir / f"{label}--{conn}.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")

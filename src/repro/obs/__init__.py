"""Opt-in structured trace bus (``WIRA_TRACE=1``).

``repro.obs`` instruments the transport, the paper's mechanisms and the
client player with typed events, so a replay can show the packets behind
a session's first-frame milliseconds.  The phase split itself needs no
trace: every :class:`~repro.cdn.session.SessionResult` carries its
``phase_breakdown``, and a traced session also records it as one
``session:phases`` event.  Enable tracing for any test or experiment run::

    WIRA_TRACE=1 WIRA_TRACE_DIR=traces/ python -m repro.experiments.fig12

which writes one qlog-style JSONL file per (session, connection) under
``WIRA_TRACE_DIR`` (memory-only tracing when unset), inspectable with
the stdlib-only ``tools/wira_trace`` CLI (``validate`` / ``summarize`` /
``diff``).

Design constraints:

* **~0 % overhead when disabled** — hook sites test one module global
  (``obs.ACTIVE is not None``); the EventLoop hot loop carries no hooks
  at all.
* events are typed: every name lives in
  :data:`repro.obs.events.EVENT_NAMES` and every file opens with a
  versioned ``trace:meta`` record, validated by
  :func:`repro.obs.events.validate_trace_lines`.
* deterministic output: canonical JSON, seeded ids, and one whole-file
  flush per session, so parallel and serial replays produce
  byte-identical traces.

Programmatic use::

    from repro import obs

    with obs.tracing(trace_dir=tmp_path) as bus:
        result = session.run()
    assert bus.counts["session:first_frame"] == 1
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.obs.bus import DEFAULT_RING_SIZE, TraceBus
from repro.obs.events import (
    EVENT_NAMES,
    SCHEMA_VERSION,
    TraceEvent,
    decode_record,
    encode_record,
    validate_record,
    validate_trace_lines,
)

__all__ = [
    "ACTIVE",
    "DEFAULT_RING_SIZE",
    "EVENT_NAMES",
    "SCHEMA_VERSION",
    "TraceBus",
    "TraceEvent",
    "decode_record",
    "disable",
    "enable",
    "enabled",
    "encode_record",
    "env_requested",
    "env_trace_dir",
    "tracing",
    "validate_record",
    "validate_trace_lines",
]

#: The installed trace bus, or ``None`` when tracing is off.  Hook sites
#: read this module attribute directly (``obs.ACTIVE is not None``), so
#: the disabled path costs one attribute check and a branch.
ACTIVE: Optional[TraceBus] = None


def env_requested() -> bool:
    """True when ``WIRA_TRACE`` asks for tracing.

    Delegates to :mod:`repro.runtime.settings`, the single parse point
    for every ``WIRA_*`` knob.
    """
    from repro.runtime import settings

    return settings.current().trace


def env_trace_dir() -> Optional[Path]:
    """Trace output directory from ``WIRA_TRACE_DIR``, if set."""
    from repro.runtime import settings

    return settings.current().trace_dir


def enable(
    bus: Optional[TraceBus] = None,
    trace_dir: Optional[Union[str, Path]] = None,
) -> TraceBus:
    """Install (or replace) the global trace bus and return it.

    ``trace_dir`` is only consulted when constructing a fresh bus; pass
    a pre-built ``bus`` to keep full control.
    """
    global ACTIVE
    if bus is None:
        directory = Path(trace_dir) if trace_dir is not None else env_trace_dir()
        bus = TraceBus(trace_dir=directory)
    ACTIVE = bus
    return ACTIVE


def disable() -> None:
    """Remove the global trace bus; hook sites revert to zero-cost."""
    global ACTIVE
    ACTIVE = None


def enabled() -> bool:
    return ACTIVE is not None


@contextmanager
def tracing(
    bus: Optional[TraceBus] = None,
    trace_dir: Optional[Union[str, Path]] = None,
) -> Iterator[TraceBus]:
    """Scoped enable/restore, for tests and ad-hoc profiling."""
    global ACTIVE
    previous = ACTIVE
    installed = enable(bus, trace_dir=trace_dir)
    try:
        yield installed
    finally:
        ACTIVE = previous


if env_requested():  # pragma: no cover - exercised by the trace-smoke CI job
    enable()

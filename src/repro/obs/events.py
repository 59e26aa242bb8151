"""Trace event schema: names, record shape, and validation.

Every trace record is one JSON object per line (JSONL) with exactly the
qlog-style triple at the top level::

    {"time": <seconds, float>, "name": "<category>:<event>", "data": {...}}

``time`` is *simulated* seconds (the :class:`~repro.simnet.engine.EventLoop`
clock), not wall-clock milliseconds — the simulator never consults the
host clock, and keeping the native unit means trace timestamps can be
diffed bit-exactly against cached replay results.  ``data`` always
carries the emitting connection id under ``"conn"`` (hex) so a merged
trace set can be re-grouped by connection.

The first record of every trace file is a ``trace:meta`` preamble
carrying :data:`SCHEMA_VERSION`; readers must reject files whose major
version they do not understand.  Versioning rule (see CONTRIBUTING.md):
adding a new event name or a new ``data`` key is backwards compatible
and does NOT bump the version; renaming/removing an event or changing
the meaning or unit of an existing key DOES.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

#: Bump on incompatible record-shape changes (see module docstring).
SCHEMA_VERSION = 2

#: Every event name the instrumentation may emit, by category.
#: ``transport:*``  — packet-level connection events
#: ``recovery:*``   — loss recovery and congestion-state updates
#: ``pacer:*``      — token-bucket pacing
#: ``bbr:*``        — BBR state machine
#: ``wira:*``       — the paper's mechanisms (parser, cookie, init)
#: ``session:*``    — client/player milestones (FFCT endpoints) and the
#:                    session's phase breakdown (``session:phases``)
#: ``fault:*``      — injected faults and adverse-schedule transitions
#: Every event is stamped with the simulated clock.  Wall-clock facts
#: about a campaign or the serve edge are not events: the fleet's
#: checkpoint and snapshot files and the serve layer's ``stats``
#: counters record them.
EVENT_NAMES = frozenset(
    {
        "trace:meta",
        "transport:packet_sent",
        "transport:packet_received",
        "transport:packet_acked",
        "transport:packet_lost",
        "transport:packet_dropped",
        "transport:handshake_complete",
        "fault:injected",
        "fault:conditions_changed",
        "fault:link_down",
        "fault:link_up",
        "recovery:metrics_updated",
        "recovery:loss_timer_fired",
        "recovery:pto_fired",
        "pacer:tokens_depleted",
        "bbr:state_updated",
        "wira:request_received",
        "wira:parse_begin",
        "wira:parse_complete",
        "wira:cookie_hit",
        "wira:cookie_miss",
        "wira:cookie_received",
        "wira:init_cwnd",
        "wira:init_pacing",
        "session:request_sent",
        "session:first_byte",
        "session:video_frame",
        "session:first_frame",
        "session:done",
        "session:phases",
    }
)

#: One in-memory trace event: ``(time, name, conn, data)``.  The bus
#: stores this tuple shape on its hot path; JSONL serialisation folds
#: ``conn`` into ``data``.
TraceEvent = Tuple[float, str, str, Dict[str, object]]


def encode_record(time: float, name: str, conn: str, data: Dict[str, object]) -> str:
    """One canonical JSONL line.  ``sort_keys`` + fixed separators keep
    the byte stream deterministic across processes and platforms."""
    payload = dict(data)
    payload["conn"] = conn
    return json.dumps(
        {"time": time, "name": name, "data": payload},
        sort_keys=True,
        separators=(",", ":"),
    )


def meta_record(time: float, conn: str, label: str) -> str:
    """The ``trace:meta`` preamble line opening every trace file."""
    return encode_record(
        time, "trace:meta", conn, {"schema_version": SCHEMA_VERSION, "label": label}
    )


def decode_record(line: str) -> Dict[str, object]:
    """Parse one JSONL line; raises ``ValueError`` on malformed input."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    return record


def validate_record(record: object, known_names: bool = True) -> List[str]:
    """Schema-check one decoded record; returns human-readable defects."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    for key in ("time", "name", "data"):
        if key not in record:
            errors.append(f"missing required key {key!r}")
    extra = set(record) - {"time", "name", "data"}
    if extra:
        errors.append(f"unexpected top-level key(s): {', '.join(sorted(extra))}")
    time = record.get("time")
    if "time" in record and not isinstance(time, (int, float)):
        errors.append(f"time must be a number, got {type(time).__name__}")
    elif isinstance(time, (int, float)) and time < 0:
        errors.append(f"time must be non-negative, got {time}")
    name = record.get("name")
    if "name" in record:
        if not isinstance(name, str) or ":" not in name:
            errors.append(f"name must be a 'category:event' string, got {name!r}")
        elif known_names and name not in EVENT_NAMES:
            errors.append(f"unknown event name {name!r}")
    data = record.get("data")
    if "data" in record and not isinstance(data, dict):
        errors.append(f"data must be an object, got {type(data).__name__}")
    return errors


def validate_trace_lines(lines: Iterable[str], known_names: bool = True) -> List[str]:
    """Validate one trace file's lines.

    Checks every record's shape, the ``trace:meta`` preamble (presence,
    position, schema version), and that timestamps never decrease.
    Returns ``"line N: defect"`` strings; empty means the file is valid.
    """
    errors: List[str] = []
    previous_time: Optional[float] = None
    saw_meta = False
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            errors.append(f"line {lineno}: blank line")
            continue
        try:
            record = decode_record(line)
        except ValueError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        for defect in validate_record(record, known_names=known_names):
            errors.append(f"line {lineno}: {defect}")
        name = record.get("name")
        if lineno == 1:
            if name != "trace:meta":
                errors.append("line 1: first record must be trace:meta")
            else:
                saw_meta = True
                data = record.get("data")
                version = data.get("schema_version") if isinstance(data, dict) else None
                if version != SCHEMA_VERSION:
                    errors.append(
                        f"line 1: schema_version {version!r} not supported "
                        f"(expected {SCHEMA_VERSION})"
                    )
        elif name == "trace:meta":
            errors.append(f"line {lineno}: trace:meta only allowed as the first record")
        time = record.get("time")
        if isinstance(time, (int, float)):
            if previous_time is not None and time < previous_time:
                errors.append(
                    f"line {lineno}: timestamp {time} decreases "
                    f"(previous {previous_time})"
                )
            previous_time = float(time)
    if lineno == 0:
        errors.append("empty trace file")
    elif not saw_meta and not any("trace:meta" in e for e in errors):
        errors.append("line 1: first record must be trace:meta")
    return errors

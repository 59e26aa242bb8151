"""Streaming campaign telemetry: mergeable per-chunk snapshots.

A fleet campaign used to be a black box between checkpoints — chunk
counts were observable, the FFCT distribution was not, and the paper's
headline claim is *distributional* (Wira(Hx) shifts the first-frame
tail).  This module is the tap that makes a running campaign legible:
every completed chunk writes one **snapshot** file into a telemetry
directory, alongside (and through the same atomic-write primitive as)
the checkpoint.

A snapshot carries

* the chunk's :class:`~repro.fleet.aggregate.CampaignAggregate` payload
  — per-scheme :class:`~repro.metrics.sketch.QuantileSketch` +
  :class:`~repro.metrics.sketch.ExactSum` aggregates, so quantiles of
  the *campaign so far* are one merge away at any instant;
* derived completion/fault counters (a *fault* is a folded session that
  did not complete);
* the chunk index and campaign key, binding it to exactly one campaign;
* a ``timing`` section (wall-clock seconds since campaign start) that
  feeds sessions/sec and ETA.

Determinism contract
--------------------
The aggregate algebra is exactly order-invariant — integer counters,
canonical dyadic :class:`ExactSum`, integer sketch buckets — so
:func:`merge_snapshots` over the chunk snapshots **in any order** yields
canonical JSON byte-identical to the final campaign report's aggregates.
The ``timing`` section is the only wall-clock-dependent part of a
snapshot and is never merged, so liveness never costs determinism.

Schema versioning (mirrors the trace-bus rule, CONTRIBUTING.md): adding
a key is backwards compatible and does NOT bump
:data:`TELEMETRY_SCHEMA_VERSION`; renaming/removing a key or changing a
meaning/unit DOES, and readers must reject versions they do not know —
:meth:`TelemetrySnapshot.from_json` raises :class:`TelemetrySchemaError`
on skew rather than guessing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.fleet.aggregate import CampaignAggregate
from repro.fleet.checkpoint import atomic_write_json

#: Bump on incompatible snapshot-shape changes (see module docstring).
TELEMETRY_SCHEMA_VERSION = 1

#: Snapshot file name pattern inside a telemetry directory.
SNAPSHOT_PREFIX = "chunk-"
SNAPSHOT_GLOB = "chunk-*.json"

#: Quantiles the live view surfaces, mirroring the report percentiles.
LIVE_PERCENTILES: Tuple[int, ...] = (50, 90, 99)


class TelemetrySchemaError(RuntimeError):
    """A snapshot's schema version is one this reader does not know."""


def default_telemetry_dir(checkpoint_path: Path) -> Path:
    """The conventional snapshot directory for a checkpoint path.

    ``campaign.json`` → ``campaign.json.telemetry/`` — derived, never
    guessed, so ``wira-fleet status --live`` can find the snapshots of
    any checkpointed campaign without extra flags.
    """
    checkpoint_path = Path(checkpoint_path)
    return checkpoint_path.parent / (checkpoint_path.name + ".telemetry")


def snapshot_path(directory: Path, chunk_index: int) -> Path:
    """Snapshot file path for one chunk (zero-padded, sortable)."""
    return Path(directory) / f"{SNAPSHOT_PREFIX}{chunk_index:06d}.json"


class TelemetrySnapshot:
    """One chunk's contribution to the live campaign view."""

    __slots__ = (
        "campaign_key",
        "n_chunks",
        "chunk_index",
        "aggregate",
        "counters",
        "timing",
    )

    def __init__(
        self,
        campaign_key: str,
        n_chunks: int,
        chunk_index: int,
        aggregate: Dict[str, object],
        counters: Dict[str, object],
        timing: Dict[str, Optional[float]],
    ) -> None:
        self.campaign_key = campaign_key
        self.n_chunks = n_chunks
        self.chunk_index = chunk_index
        self.aggregate = aggregate
        self.counters = counters
        self.timing = timing

    @classmethod
    def for_chunk(
        cls,
        campaign_key: str,
        n_chunks: int,
        chunk_index: int,
        aggregate: Mapping[str, object],
        elapsed_s: Optional[float] = None,
    ) -> "TelemetrySnapshot":
        """Build a snapshot from one chunk's aggregate payload.

        Completion/fault counters are *derived* from the aggregate —
        a fault is a session that was folded but did not complete — so
        the counters can never disagree with the quantile state.
        ``elapsed_s`` is wall-clock seconds since campaign start at
        write time (``None`` for chunks adopted from a checkpoint, whose
        original timing is unknown).
        """
        return cls(
            campaign_key=campaign_key,
            n_chunks=n_chunks,
            chunk_index=chunk_index,
            aggregate=dict(aggregate),
            counters=derive_counters(aggregate),
            timing={"elapsed_s": elapsed_s},
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "campaign_key": self.campaign_key,
            "n_chunks": self.n_chunks,
            "chunk_index": self.chunk_index,
            "aggregate": self.aggregate,
            "counters": self.counters,
            "timing": self.timing,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "TelemetrySnapshot":
        """Parse a snapshot payload.

        Raises :class:`TelemetrySchemaError` on a schema-version skew
        and ``ValueError`` on structural defects (both of which a
        mid-replace torn read can also look like — callers that poll
        live files should go through :func:`load_snapshot`, which
        retries the latter).
        """
        if not isinstance(payload, Mapping):
            raise ValueError("snapshot is not a JSON object")
        version = payload.get("schema_version")
        if version != TELEMETRY_SCHEMA_VERSION:
            raise TelemetrySchemaError(
                f"telemetry snapshot schema_version {version!r} not supported "
                f"(expected {TELEMETRY_SCHEMA_VERSION})"
            )
        key = payload.get("campaign_key")
        n_chunks = payload.get("n_chunks")
        chunk_index = payload.get("chunk_index")
        aggregate = payload.get("aggregate")
        counters = payload.get("counters")
        timing = payload.get("timing")
        if (
            not isinstance(key, str)
            or not isinstance(n_chunks, int)
            or not isinstance(chunk_index, int)
            or not 0 <= chunk_index < n_chunks
            or not isinstance(aggregate, dict)
            or not isinstance(counters, dict)
            or not isinstance(timing, dict)
        ):
            raise ValueError("snapshot is structurally malformed")
        return cls(
            campaign_key=key,
            n_chunks=n_chunks,
            chunk_index=chunk_index,
            aggregate=aggregate,
            counters=counters,
            timing={
                "elapsed_s": None
                if timing.get("elapsed_s") is None
                else float(timing["elapsed_s"])
            },
        )


def derive_counters(aggregate: Mapping[str, object]) -> Dict[str, object]:
    """Completion/fault counters derived from an aggregate payload."""
    per_scheme: Dict[str, Dict[str, int]] = {}
    schemes = aggregate.get("schemes")
    if isinstance(schemes, Mapping):
        for value in sorted(schemes):
            entry = schemes[value]
            if not isinstance(entry, Mapping):
                continue
            sessions = int(entry.get("sessions", 0))  # type: ignore[call-overload]
            completed = int(entry.get("completed", 0))  # type: ignore[call-overload]
            per_scheme[value] = {
                "sessions": sessions,
                "completed": completed,
                "faults": sessions - completed,
            }
    totals = {
        "sessions": sum(per_scheme[s]["sessions"] for s in sorted(per_scheme)),
        "completed": sum(per_scheme[s]["completed"] for s in sorted(per_scheme)),
        "faults": sum(per_scheme[s]["faults"] for s in sorted(per_scheme)),
    }
    return {"schemes": per_scheme, "total": totals}


# ---------------------------------------------------------------------------
# Disk I/O — the write side shares the checkpoint's atomic primitive; the
# read side is defensive because it races a live writer.


def write_snapshot(directory: Path, snapshot: TelemetrySnapshot) -> Path:
    """Atomically persist one snapshot; returns its path."""
    path = snapshot_path(directory, snapshot.chunk_index)
    atomic_write_json(path, snapshot.to_json())
    return path


def load_snapshot(
    path: Path, retries: int = 3, delay_s: float = 0.02
) -> Optional[TelemetrySnapshot]:
    """Read one snapshot, tolerating a concurrent atomic replace.

    ``os.replace`` makes torn *contents* impossible on POSIX, but a
    poller can still lose the race between listing and opening (the
    file vanished), or run against filesystems without atomic rename
    semantics — so unreadable/malformed reads are retried ``retries``
    times and then reported as ``None``, never an exception.  A
    **schema-version skew** is different: the file is intact but from a
    future (or ancient) writer, and retrying cannot fix it —
    :class:`TelemetrySchemaError` propagates so callers can tell the
    user to upgrade instead of silently dropping data.
    """
    path = Path(path)
    for attempt in range(max(1, retries)):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return TelemetrySnapshot.from_json(payload)
        except TelemetrySchemaError:
            raise
        except (OSError, ValueError):
            if attempt + 1 >= max(1, retries):
                return None
            time.sleep(delay_s)
    return None


def scan_snapshots(
    directory: Path, retries: int = 3
) -> Dict[int, TelemetrySnapshot]:
    """All readable snapshots in a telemetry directory, by chunk index.

    Unreadable files (mid-replace races, partial writes on non-atomic
    filesystems) are skipped after retries; schema skews propagate
    (see :func:`load_snapshot`).
    """
    directory = Path(directory)
    snapshots: Dict[int, TelemetrySnapshot] = {}
    if not directory.is_dir():
        return snapshots
    for path in sorted(directory.glob(SNAPSHOT_GLOB)):
        snapshot = load_snapshot(path, retries=retries)
        if snapshot is not None:
            snapshots[snapshot.chunk_index] = snapshot
    return snapshots


# ---------------------------------------------------------------------------
# The snapshot algebra: any-order merge == the final report's aggregates.


def merge_snapshots(snapshots: Iterable[TelemetrySnapshot]) -> CampaignAggregate:
    """Merge chunk snapshots into the campaign-so-far aggregate.

    Order-invariant **by construction** (every aggregate component
    merges exactly), so callers may pass snapshots in directory-listing
    order, completion order, or any other: the canonical JSON of the
    result is byte-identical, and — over the full snapshot set — equal
    to the final campaign report's aggregates.  Mixing snapshots from
    different campaigns raises ``ValueError``.
    """
    ordered: List[TelemetrySnapshot] = list(snapshots)
    if not ordered:
        raise ValueError("cannot merge an empty snapshot set")
    key = ordered[0].campaign_key
    seen: Dict[int, str] = {}
    for snapshot in ordered:
        if snapshot.campaign_key != key:
            raise ValueError(
                f"snapshot for chunk {snapshot.chunk_index} belongs to campaign "
                f"{snapshot.campaign_key[:12]}…, not {key[:12]}…"
            )
        if snapshot.chunk_index in seen:
            raise ValueError(f"duplicate snapshot for chunk {snapshot.chunk_index}")
        seen[snapshot.chunk_index] = snapshot.campaign_key
    total = CampaignAggregate.from_json(ordered[0].aggregate)
    for snapshot in ordered[1:]:
        total.merge(CampaignAggregate.from_json(snapshot.aggregate))
    return total


# ---------------------------------------------------------------------------
# Live view: everything the dashboard renders, computed in one place.


class LiveStatus:
    """A point-in-time summary of a (possibly still running) campaign."""

    __slots__ = (
        "campaign_key",
        "n_chunks",
        "chunks_done",
        "sessions",
        "completed",
        "faults",
        "per_scheme",
        "elapsed_seconds",
        "sessions_per_second",
        "eta_seconds",
    )

    def __init__(
        self,
        campaign_key: str,
        n_chunks: int,
        chunks_done: int,
        sessions: int,
        completed: int,
        faults: int,
        per_scheme: Dict[str, Dict[str, object]],
        elapsed_seconds: Optional[float],
        sessions_per_second: Optional[float],
        eta_seconds: Optional[float],
    ) -> None:
        self.campaign_key = campaign_key
        self.n_chunks = n_chunks
        self.chunks_done = chunks_done
        self.sessions = sessions
        self.completed = completed
        self.faults = faults
        self.per_scheme = per_scheme
        self.elapsed_seconds = elapsed_seconds
        self.sessions_per_second = sessions_per_second
        self.eta_seconds = eta_seconds

    @property
    def complete(self) -> bool:
        return self.chunks_done >= self.n_chunks

    @property
    def completion_fraction(self) -> float:
        if self.n_chunks <= 0:
            return 0.0
        return self.chunks_done / self.n_chunks

    def quantiles_seconds(self) -> Dict[str, Optional[Tuple[float, ...]]]:
        """Per-scheme FFCT (p50, p90, p99) in seconds, for the strips."""
        out: Dict[str, Optional[Tuple[float, ...]]] = {}
        for value in sorted(self.per_scheme):
            entry = self.per_scheme[value]
            if entry.get("p50") is None:
                out[value] = None
            else:
                out[value] = tuple(
                    float(entry[f"p{p}"])  # type: ignore[arg-type]
                    for p in LIVE_PERCENTILES
                )
        return out


def _snapshot_sessions(snapshot: TelemetrySnapshot) -> int:
    """Sessions one chunk folded, re-derived from its aggregate."""
    total = derive_counters(snapshot.aggregate)["total"]
    return int(total["sessions"])  # type: ignore[call-overload,index]


def live_status(snapshots: Mapping[int, TelemetrySnapshot]) -> LiveStatus:
    """Compute the dashboard view from the snapshots read so far.

    Rate and ETA are **current-run** figures: chunks adopted from a
    checkpoint on resume carry ``elapsed_s=None`` (their original
    wall-clock cost is unknown), so only snapshots with real timings
    contribute sessions and chunk counts to ``sessions_per_second`` and
    ``eta_seconds`` — a resumed campaign's rate is not inflated by work
    a previous run paid for.
    """
    if not snapshots:
        raise ValueError("no snapshots to summarize")
    ordered = [snapshots[index] for index in sorted(snapshots)]
    merged = merge_snapshots(ordered)
    per_scheme: Dict[str, Dict[str, object]] = {}
    for value in sorted(merged.schemes):
        agg = merged.schemes[value]
        entry: Dict[str, object] = {
            "sessions": agg.sessions,
            "completed": agg.completed,
            "faults": agg.sessions - agg.completed,
        }
        for p in LIVE_PERCENTILES:
            entry[f"p{p}"] = (
                agg.ffct_sketch.percentile(p) if agg.ffct_sketch.count else None
            )
        per_scheme[value] = entry
    sessions = merged.total_sessions
    completed = sum(agg.completed for agg in merged.schemes.values())
    n_chunks = ordered[0].n_chunks
    done = len(ordered)
    timed = [s for s in ordered if s.timing.get("elapsed_s") is not None]
    elapsed = (
        max(float(s.timing["elapsed_s"]) for s in timed)  # type: ignore[arg-type]
        if timed
        else None
    )
    timed_sessions = sum(_snapshot_sessions(s) for s in timed)
    rate = timed_sessions / elapsed if elapsed and elapsed > 0 else None
    eta: Optional[float] = None
    if done >= n_chunks:
        eta = 0.0
    elif elapsed is not None and timed:
        eta = elapsed / len(timed) * (n_chunks - done)
    return LiveStatus(
        campaign_key=ordered[0].campaign_key,
        n_chunks=n_chunks,
        chunks_done=done,
        sessions=sessions,
        completed=completed,
        faults=sessions - completed,
        per_scheme=per_scheme,
        elapsed_seconds=elapsed,
        sessions_per_second=rate,
        eta_seconds=eta,
    )


__all__ = [
    "LIVE_PERCENTILES",
    "LiveStatus",
    "SNAPSHOT_GLOB",
    "SNAPSHOT_PREFIX",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetrySchemaError",
    "TelemetrySnapshot",
    "default_telemetry_dir",
    "derive_counters",
    "live_status",
    "load_snapshot",
    "merge_snapshots",
    "scan_snapshots",
    "snapshot_path",
    "write_snapshot",
]

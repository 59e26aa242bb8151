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
on skew rather than guessing.  v2 dropped the derived ``counters``
copy that v1 stored beside the aggregate: the report is the one
summary, and :func:`live_report` builds it from the aggregates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.fleet.aggregate import CampaignAggregate, payload_sessions
from repro.fleet.checkpoint import atomic_write_json
from repro.fleet.report import build_report

#: Bump on incompatible snapshot-shape changes (see module docstring).
TELEMETRY_SCHEMA_VERSION = 2

#: Snapshot file name pattern inside a telemetry directory.
SNAPSHOT_PREFIX = "chunk-"
SNAPSHOT_GLOB = "chunk-*.json"


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
        "timing",
    )

    def __init__(
        self,
        campaign_key: str,
        n_chunks: int,
        chunk_index: int,
        aggregate: Dict[str, object],
        timing: Dict[str, Optional[float]],
    ) -> None:
        self.campaign_key = campaign_key
        self.n_chunks = n_chunks
        self.chunk_index = chunk_index
        self.aggregate = aggregate
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

        ``elapsed_s`` is wall-clock seconds since campaign start at
        write time (``None`` for chunks adopted from a checkpoint, whose
        original timing is unknown).
        """
        return cls(
            campaign_key=campaign_key,
            n_chunks=n_chunks,
            chunk_index=chunk_index,
            aggregate=dict(aggregate),
            timing={"elapsed_s": elapsed_s},
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "campaign_key": self.campaign_key,
            "n_chunks": self.n_chunks,
            "chunk_index": self.chunk_index,
            "aggregate": self.aggregate,
            "timing": self.timing,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "TelemetrySnapshot":
        """Parse a snapshot payload.

        Raises :class:`TelemetrySchemaError` on a schema-version skew
        and ``ValueError`` on structural defects.
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
        timing = payload.get("timing")
        if (
            not isinstance(key, str)
            or not isinstance(n_chunks, int)
            or not isinstance(chunk_index, int)
            or not 0 <= chunk_index < n_chunks
            or not isinstance(aggregate, dict)
            or not isinstance(timing, dict)
        ):
            raise ValueError("snapshot is structurally malformed")
        return cls(
            campaign_key=key,
            n_chunks=n_chunks,
            chunk_index=chunk_index,
            aggregate=aggregate,
            timing={
                "elapsed_s": None
                if timing.get("elapsed_s") is None
                else float(timing["elapsed_s"])
            },
        )


# ---------------------------------------------------------------------------
# Disk I/O — writes go through the checkpoint's atomic primitive, so one
# read sees one whole file.


def write_snapshot(directory: Path, snapshot: TelemetrySnapshot) -> Path:
    """Atomically persist one snapshot; returns its path."""
    path = snapshot_path(directory, snapshot.chunk_index)
    atomic_write_json(path, snapshot.to_json())
    return path


def load_snapshot(path: Path) -> Optional[TelemetrySnapshot]:
    """Read one snapshot; an unreadable or malformed file is ``None``.

    Snapshots are written through ``os.replace``, so a poller sees the
    previous complete file or the new one, never a torn write; a file
    that vanished between listing and opening is ``None`` too.  A
    **schema-version skew** is different: the file is intact but from a
    future (or ancient) writer — :class:`TelemetrySchemaError`
    propagates so callers can tell the user to upgrade instead of
    silently dropping data.
    """
    try:
        return TelemetrySnapshot.from_json(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )
    except (OSError, ValueError):
        return None


def scan_snapshots(directory: Path) -> Dict[int, TelemetrySnapshot]:
    """All readable snapshots in a telemetry directory, by chunk index.

    Unreadable files are skipped; schema skews propagate (see
    :func:`load_snapshot`).
    """
    directory = Path(directory)
    snapshots: Dict[int, TelemetrySnapshot] = {}
    if not directory.is_dir():
        return snapshots
    for path in sorted(directory.glob(SNAPSHOT_GLOB)):
        snapshot = load_snapshot(path)
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
# Live view: the campaign report so far, and how fast it is growing.


@dataclass(frozen=True)
class Progress:
    """How far a (possibly still running) campaign is, and how fast it goes.

    Rate and ETA are **current-run** figures: chunks adopted from a
    checkpoint on resume carry ``elapsed_s=None`` (their original
    wall-clock cost is unknown), so only snapshots with real timings
    contribute to ``sessions_per_s`` and ``eta_s`` — a resumed
    campaign's rate is not inflated by work a previous run paid for.
    """

    chunks_done: int
    n_chunks: int
    elapsed_s: Optional[float]
    sessions_per_s: Optional[float]
    eta_s: Optional[float]

    @property
    def complete(self) -> bool:
        return self.chunks_done >= self.n_chunks


def live_report(
    snapshots: Mapping[int, TelemetrySnapshot],
) -> Tuple[Dict[str, object], Progress]:
    """The report of the chunks snapshotted so far, and their progress.

    The report is :func:`~repro.fleet.report.build_report` over the
    merged snapshots, so over any subset of chunks it equals what
    ``wira-fleet report --partial`` prints for the same chunks, less its
    ``partial`` marker.
    """
    if not snapshots:
        raise ValueError("no snapshots to summarize")
    ordered = [snapshots[index] for index in sorted(snapshots)]
    report = build_report(merge_snapshots(ordered), ordered[0].campaign_key)
    n_chunks = ordered[0].n_chunks
    timed = [s for s in ordered if s.timing.get("elapsed_s") is not None]
    elapsed = max((float(s.timing["elapsed_s"]) for s in timed), default=None)  # type: ignore[arg-type]
    timed_sessions = sum(payload_sessions(s.aggregate) for s in timed)
    eta: Optional[float] = None
    if len(ordered) >= n_chunks:
        eta = 0.0
    elif elapsed is not None:
        eta = elapsed / len(timed) * (n_chunks - len(ordered))
    progress = Progress(
        chunks_done=len(ordered),
        n_chunks=n_chunks,
        elapsed_s=elapsed,
        sessions_per_s=timed_sessions / elapsed if elapsed else None,
        eta_s=eta,
    )
    return report, progress


__all__ = [
    "Progress",
    "SNAPSHOT_GLOB",
    "SNAPSHOT_PREFIX",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetrySchemaError",
    "TelemetrySnapshot",
    "default_telemetry_dir",
    "live_report",
    "load_snapshot",
    "merge_snapshots",
    "scan_snapshots",
    "snapshot_path",
    "write_snapshot",
]

"""The fleet campaign engine: chunked, sharded, resumable replay.

A campaign replays a :class:`~repro.workload.population.FleetPopulation`
— 10^5–10^6 sessions — under each comparison scheme with the paper's
paired A/B structure (the same chains replay under every scheme).  The
unit of work is a *chunk* of ``chunk_chains`` consecutive OD chains;
each chunk independently regenerates its chains from ``(seed, index)``,
replays them, and folds every outcome straight into a
:class:`~repro.fleet.aggregate.CampaignAggregate`.  Only the chunk's
aggregate JSON crosses the process boundary, so resident memory is
bounded by O(chunk) regardless of campaign size.

Determinism contract: a chunk's aggregate depends only on the campaign
config and the chunk index, and the engine merges chunk aggregates in
chunk-index order — so ``jobs=1`` and ``jobs=N`` campaigns produce
byte-identical reports, and a resumed campaign is byte-identical to an
uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro import obs as _obs
from repro.core.config import WiraConfig
from repro.core.schemes import BASELINE, WIRA, WIRA_FF, WIRA_HX, as_spec
from repro.fleet.aggregate import CampaignAggregate, merge_chunks
from repro.fleet.checkpoint import CheckpointState, load_checkpoint, save_checkpoint
from repro.fleet.telemetry import TelemetrySnapshot, snapshot_path, write_snapshot
from repro.metrics.sketch import DEFAULT_ALPHA
from repro.runtime.fingerprint import source_fingerprint
from repro.runtime.pool import resolve_jobs, run_tasks
from repro.workload.population import DeploymentConfig, FleetPopulation

logger = logging.getLogger(__name__)


def _trace(name: str, data: Dict[str, object]) -> None:
    """Emit a ``fleet:*`` milestone onto the active trace bus, if any.

    Campaign milestones are driver-side wall-clock moments, not simulated
    ones, so they carry ``time=0.0`` and the sentinel connection id
    ``"fleet"`` — they live in the bus ring buffer and counters for
    inspection, but are emitted outside any session scope and therefore
    never land in per-session trace files (whose byte streams stay
    identical with or without a campaign running).
    """
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.emit(0.0, name, "fleet", data)

#: Bump when chunk semantics change; folded into the campaign key.
#: v2: chunk aggregates gained the per-scheme "phases" section.
FLEET_FORMAT_VERSION = 2

#: Default scheme mix — the paper's Table I comparison set.
DEFAULT_SCHEMES: Tuple[str, ...] = (
    BASELINE.value,
    WIRA_FF.value,
    WIRA_HX.value,
    WIRA.value,
)


class CampaignMismatchError(RuntimeError):
    """A checkpoint belongs to a different campaign (config or code)."""


@dataclass(frozen=True)
class FleetConfig:
    """Everything identifying one campaign."""

    population: DeploymentConfig = field(default_factory=DeploymentConfig)
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES
    wira: WiraConfig = field(default_factory=WiraConfig)
    #: OD chains per work unit.  Small enough to bound worker memory,
    #: large enough to amortize per-chunk overhead.
    chunk_chains: int = 25
    #: Completed chunks between checkpoint writes.
    checkpoint_every: int = 4
    sketch_alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if self.chunk_chains < 1:
            raise ValueError("chunk_chains must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if not self.schemes:
            raise ValueError("need at least one scheme")
        for value in self.schemes:
            as_spec(value)  # raises ValueError on unknown schemes

    @property
    def n_chunks(self) -> int:
        n = self.population.n_od_pairs
        return (n + self.chunk_chains - 1) // self.chunk_chains

    def chunk_bounds(self, chunk_index: int) -> Tuple[int, int]:
        """Chain index range ``[start, stop)`` of one chunk."""
        if not 0 <= chunk_index < self.n_chunks:
            raise IndexError(f"chunk_index {chunk_index} out of range [0, {self.n_chunks})")
        start = chunk_index * self.chunk_chains
        return start, min(start + self.chunk_chains, self.population.n_od_pairs)

    def to_json(self) -> Dict[str, object]:
        return {
            "population": asdict(self.population),
            "schemes": list(self.schemes),
            "wira": asdict(self.wira),
            "chunk_chains": self.chunk_chains,
            "checkpoint_every": self.checkpoint_every,
            "sketch_alpha": self.sketch_alpha,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "FleetConfig":
        return cls(
            population=DeploymentConfig(**payload["population"]),  # type: ignore[arg-type]
            schemes=tuple(payload["schemes"]),  # type: ignore[arg-type]
            wira=WiraConfig(**payload["wira"]),  # type: ignore[arg-type]
            chunk_chains=int(payload["chunk_chains"]),  # type: ignore[call-overload]
            checkpoint_every=int(payload["checkpoint_every"]),  # type: ignore[call-overload]
            sketch_alpha=float(payload["sketch_alpha"]),  # type: ignore[arg-type]
        )

    def key(self) -> str:
        """Content hash identifying the campaign's inputs *and* code.

        Folding the source fingerprint in means a checkpoint written by
        different code never silently resumes — same safety property as
        the replay disk cache.
        """
        payload = json.dumps(
            {
                "format_version": FLEET_FORMAT_VERSION,
                "source": source_fingerprint(),
                "config": self.to_json(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]

    def with_(self, **changes: object) -> "FleetConfig":
        return replace(self, **changes)  # type: ignore[arg-type]


#: Progress callback: (completed_chunks, total_chunks, sessions_so_far).
ProgressFn = Callable[[int, int, int], None]


def run_chunk(config: FleetConfig, chunk_index: int) -> Dict[str, object]:
    """Replay one chunk and return its aggregate as JSON.

    Pure function of ``(config, chunk_index)`` — the determinism
    anchor everything else (sharding, checkpointing, resume) rests on.

    A chunk is one :func:`~repro.experiments.common.replay_block` — the
    unit a figure replays too, chain by chain on the solo loop — whose
    outcomes are folded instead of kept: buffered per scheme (the
    chunk's outcomes and worlds are all the memory a chunk holds; its
    sessions are freed as they finish) and folded in
    ``(od, scheme, session)`` order.
    """
    from repro.experiments import common

    population = FleetPopulation(config.population)
    aggregate = CampaignAggregate(config.schemes, alpha=config.sketch_alpha)
    start, stop = config.chunk_bounds(chunk_index)
    chains = [population.chain(od_index) for od_index in range(start, stop)]
    per_scheme = common.replay_block(
        [as_spec(value) for value in config.schemes],
        chains,
        start,
        config.population,
        config.wira,
    )
    for offset in range(stop - start):
        for scheme_value in config.schemes:
            for outcome in per_scheme[scheme_value][offset]:
                aggregate.fold(scheme_value, outcome.spec, outcome.result)
    return aggregate.to_json()


def _run_chunk_task(task: Tuple[str, int]) -> Dict[str, object]:
    """Task entry: the config crosses a fork as canonical JSON."""
    config_json, chunk_index = task
    return run_chunk(FleetConfig.from_json(json.loads(config_json)), chunk_index)


class FleetCampaign:
    """Drives one campaign: fresh, sharded, checkpointed, or resumed."""

    def __init__(
        self,
        config: FleetConfig,
        checkpoint_path: Optional[Path] = None,
        progress: Optional[ProgressFn] = None,
        telemetry_dir: Optional[Path] = None,
    ) -> None:
        self.config = config
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.progress = progress
        # Where live telemetry snapshots land, one per completed chunk.
        # A runtime concern, deliberately NOT part of FleetConfig: the
        # campaign key must not change because an operator watches.
        self.telemetry_dir = Path(telemetry_dir) if telemetry_dir else None
        self.key = config.key()
        self._chunks: Dict[int, Dict[str, object]] = {}
        self._since_checkpoint = 0
        self._started: Optional[float] = None

    # -- resume ------------------------------------------------------------

    def load_completed(self, require_checkpoint: bool = False) -> int:
        """Adopt completed chunks from the checkpoint file, if any.

        Returns the number of chunks adopted.  A checkpoint whose key
        does not match this campaign raises
        :class:`CampaignMismatchError`; a missing or corrupt file is
        ``0`` adopted chunks (or an error when ``require_checkpoint``).
        """
        if self.checkpoint_path is None:
            if require_checkpoint:
                raise FileNotFoundError("no checkpoint path configured")
            return 0
        state = load_checkpoint(self.checkpoint_path)
        if state is None:
            if require_checkpoint:
                raise FileNotFoundError(
                    f"no usable checkpoint at {self.checkpoint_path}"
                )
            return 0
        if state.key != self.key:
            raise CampaignMismatchError(
                f"checkpoint {self.checkpoint_path} was written by a different "
                f"campaign (config or code changed); refusing to resume"
            )
        self._chunks.update(state.chunks)
        _trace(
            "fleet:resume_adopted",
            {"chunks": len(state.chunks), "n_chunks": state.n_chunks},
        )
        return len(state.chunks)

    # -- execution ---------------------------------------------------------

    def run(self, jobs: Optional[int] = None) -> CampaignAggregate:
        """Execute all pending chunks and return the merged aggregate."""
        self._started = time.perf_counter()
        self._sync_telemetry()
        pending = [i for i in range(self.config.n_chunks) if i not in self._chunks]
        self._report_progress()
        config_json = json.dumps(self.config.to_json(), sort_keys=True)
        for chunk_index in pending:
            _trace("fleet:chunk_begin", {"chunk": chunk_index})
        tasks = [(config_json, chunk_index) for chunk_index in pending]
        for position, payload in run_tasks(_run_chunk_task, tasks, resolve_jobs(jobs)):
            self._complete(pending[position], payload)
        self._write_checkpoint(force=True)
        ordered = [self._chunks[i] for i in sorted(self._chunks)]
        return merge_chunks(self.config.schemes, self.config.sketch_alpha, ordered)

    def _complete(self, chunk_index: int, payload: Dict[str, object]) -> None:
        self._chunks[chunk_index] = payload
        self._since_checkpoint += 1
        _trace("fleet:chunk_complete", {"chunk": chunk_index})
        self._write_snapshot(chunk_index, payload)
        self._report_progress()
        if self._since_checkpoint >= self.config.checkpoint_every:
            self._write_checkpoint()

    def _write_checkpoint(self, force: bool = False) -> None:
        if self.checkpoint_path is None:
            return
        if not force and self._since_checkpoint < self.config.checkpoint_every:
            return
        state = CheckpointState(
            key=self.key,
            config=self.config.to_json(),
            n_chunks=self.config.n_chunks,
            chunks=dict(self._chunks),
        )
        save_checkpoint(self.checkpoint_path, state)
        self._since_checkpoint = 0

    # -- telemetry ---------------------------------------------------------

    def _elapsed(self) -> Optional[float]:
        if self._started is None:
            return None
        return time.perf_counter() - self._started

    def _write_snapshot(
        self,
        chunk_index: int,
        payload: Dict[str, object],
        elapsed_s: Optional[float] = -1.0,
    ) -> None:
        if self.telemetry_dir is None:
            return
        if elapsed_s is not None and elapsed_s < 0:
            elapsed_s = self._elapsed()
        snapshot = TelemetrySnapshot.for_chunk(
            campaign_key=self.key,
            n_chunks=self.config.n_chunks,
            chunk_index=chunk_index,
            aggregate=payload,
            elapsed_s=elapsed_s,
        )
        write_snapshot(self.telemetry_dir, snapshot)
        _trace(
            "fleet:snapshot_written",
            {"chunk": chunk_index, "dir": str(self.telemetry_dir)},
        )

    def _sync_telemetry(self) -> None:
        """Reconcile the telemetry directory with this campaign's state.

        Called once at ``run()`` start: snapshots left behind by another
        campaign (different key) or by chunks this run does not consider
        complete are stale and would poison a live merge, so they are
        removed; chunks adopted from a checkpoint are (re-)written so the
        live view covers them from the first poll (with ``elapsed_s``
        ``None`` — their original wall-clock cost is unknown).
        """
        if self.telemetry_dir is None:
            return
        self.telemetry_dir.mkdir(parents=True, exist_ok=True)
        keep = {snapshot_path(self.telemetry_dir, i).name for i in self._chunks}
        for path in sorted(self.telemetry_dir.glob("chunk-*.json")):
            if path.name not in keep:
                try:
                    path.unlink()
                except OSError:
                    logger.warning("could not remove stale snapshot %s", path)
        for chunk_index in sorted(self._chunks):
            self._write_snapshot(
                chunk_index, self._chunks[chunk_index], elapsed_s=None
            )

    def _report_progress(self) -> None:
        if self.progress is None:
            return
        sessions = sum(
            int(scheme_payload["sessions"])  # type: ignore[call-overload,index]
            for payload in self._chunks.values()
            for scheme_payload in payload["schemes"].values()  # type: ignore[union-attr,index]
        )
        self.progress(len(self._chunks), self.config.n_chunks, sessions)


def run_campaign(
    config: FleetConfig,
    checkpoint_path: Optional[Path] = None,
    jobs: Optional[int] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
    telemetry_dir: Optional[Path] = None,
) -> CampaignAggregate:
    """One-call campaign: optionally resume, execute, return the total.

    ``resume=True`` requires a usable checkpoint for *this* campaign at
    ``checkpoint_path``; ``resume=False`` starts fresh, overwriting any
    checkpoint there.  ``telemetry_dir`` enables the live snapshot tap
    (see :mod:`repro.fleet.telemetry`).
    """
    campaign = FleetCampaign(
        config,
        checkpoint_path=checkpoint_path,
        progress=progress,
        telemetry_dir=telemetry_dir,
    )
    if resume:
        adopted = campaign.load_completed(require_checkpoint=True)
        logger.info("resuming campaign: %d/%d chunks already done", adopted, config.n_chunks)
    return campaign.run(jobs=jobs)


__all__ = [
    "CampaignMismatchError",
    "DEFAULT_SCHEMES",
    "FLEET_FORMAT_VERSION",
    "FleetCampaign",
    "FleetConfig",
    "run_campaign",
    "run_chunk",
]

"""Fleet-scale campaign engine (10^5–10^6 sessions, bounded memory).

The figure-scale replay of :mod:`repro.experiments` materializes every
:class:`~repro.cdn.session.SessionResult`; fine for 10^2–10^3 chains,
hopeless for the fleet scale the paper's production deployment observes.
This package runs *campaigns*: chunked, process-sharded replays of an
index-addressable :class:`~repro.workload.population.FleetPopulation`
whose per-session results fold immediately into mergeable streaming
aggregates (:mod:`repro.fleet.aggregate`), with periodic atomic
checkpoints (:mod:`repro.fleet.checkpoint`) so interrupted campaigns
resume from the last completed chunk.  A running campaign is observable
live: the telemetry tap (:mod:`repro.fleet.telemetry`) writes one
mergeable snapshot per completed chunk, and the HTML renderer
(:mod:`repro.fleet.htmlreport`) turns a finished campaign into a
self-contained artifact.

Determinism contract: serial (``jobs=1``) and sharded (``jobs=N``)
campaigns — and resumed versus uninterrupted ones — produce
byte-identical reports (:mod:`repro.fleet.report`).

Typical use::

    from repro.fleet import FleetConfig, build_report, run_campaign
    from repro.workload import DeploymentConfig

    config = FleetConfig(population=DeploymentConfig(n_od_pairs=20_000, seed=1))
    total = run_campaign(config, checkpoint_path=Path("campaign.json"), jobs=8)
    report = build_report(total, config.key())

or the CLI: ``python -m tools.wira_fleet run --od-pairs 20000 ...``.
"""

from repro.fleet.aggregate import CampaignAggregate, SchemeAggregate, merge_chunks
from repro.fleet.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointState,
    atomic_write_json,
    load_checkpoint,
    save_checkpoint,
)
from repro.fleet.engine import (
    DEFAULT_SCHEMES,
    FLEET_FORMAT_VERSION,
    CampaignMismatchError,
    FleetCampaign,
    FleetConfig,
    run_campaign,
    run_chunk,
)
from repro.fleet.htmlreport import render_html_report
from repro.fleet.report import PERCENTILES, build_report, canonical_json, report_hash
from repro.fleet.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    Progress,
    TelemetrySchemaError,
    TelemetrySnapshot,
    default_telemetry_dir,
    live_report,
    load_snapshot,
    merge_snapshots,
    scan_snapshots,
    write_snapshot,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CampaignAggregate",
    "CampaignMismatchError",
    "CheckpointState",
    "DEFAULT_SCHEMES",
    "FLEET_FORMAT_VERSION",
    "FleetCampaign",
    "FleetConfig",
    "PERCENTILES",
    "Progress",
    "SchemeAggregate",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetrySchemaError",
    "TelemetrySnapshot",
    "atomic_write_json",
    "build_report",
    "canonical_json",
    "default_telemetry_dir",
    "live_report",
    "load_checkpoint",
    "load_snapshot",
    "merge_chunks",
    "merge_snapshots",
    "render_html_report",
    "report_hash",
    "run_campaign",
    "run_chunk",
    "save_checkpoint",
    "scan_snapshots",
    "write_snapshot",
]

"""Telemetry snapshot algebra: merge invariance and live==final identity.

The tap's whole value rests on one property: merging the per-chunk
snapshots — in ANY order, at ANY moment — yields canonical JSON
byte-identical to the final report's aggregates.  These tests pin that
property on serial, sharded, and kill→resume campaigns, plus the schema
versioning and defensive-read behavior the live dashboard depends on.
"""

import itertools
import json

import pytest

from repro.fleet import (
    CheckpointState,
    FleetConfig,
    TELEMETRY_SCHEMA_VERSION,
    TelemetrySchemaError,
    TelemetrySnapshot,
    build_report,
    canonical_json,
    default_telemetry_dir,
    live_report,
    load_snapshot,
    merge_snapshots,
    run_campaign,
    run_chunk,
    save_checkpoint,
    scan_snapshots,
)
from repro.fleet.aggregate import payload_sessions
from repro.fleet.telemetry import snapshot_path, write_snapshot
from repro.workload import DeploymentConfig

SCHEMES = ("baseline", "wira")


def small_config(**kwargs):
    defaults = dict(
        population=DeploymentConfig(n_od_pairs=6, seed=3),
        schemes=SCHEMES,
        chunk_chains=2,
        checkpoint_every=1,
    )
    defaults.update(kwargs)
    return FleetConfig(**defaults)


def run_with_telemetry(tmp_path, config, jobs=1, name="cp.json"):
    checkpoint = tmp_path / name
    telemetry = default_telemetry_dir(checkpoint)
    aggregate = run_campaign(
        config, checkpoint_path=checkpoint, jobs=jobs, telemetry_dir=telemetry
    )
    return aggregate, checkpoint, telemetry


class TestSnapshotAlgebra:
    def test_every_chunk_writes_one_snapshot(self, tmp_path):
        config = small_config()
        _, _, telemetry = run_with_telemetry(tmp_path, config)
        snapshots = scan_snapshots(telemetry)
        assert sorted(snapshots) == list(range(config.n_chunks))
        for index, snapshot in snapshots.items():
            assert snapshot.campaign_key == config.key()
            assert snapshot.n_chunks == config.n_chunks
            assert snapshot.chunk_index == index

    def test_merge_is_order_invariant_bytewise(self, tmp_path):
        config = small_config()
        _, _, telemetry = run_with_telemetry(tmp_path, config)
        snapshots = scan_snapshots(telemetry)
        orderings = list(itertools.permutations(snapshots.values()))
        encodings = {
            canonical_json(merge_snapshots(ordering).to_json())
            for ordering in orderings
        }
        assert len(encodings) == 1

    def test_merge_is_associative(self, tmp_path):
        config = small_config()
        _, _, telemetry = run_with_telemetry(tmp_path, config)
        s = [scan_snapshots(telemetry)[i] for i in range(3)]
        left = merge_snapshots([s[0], s[1]])
        left.merge(merge_snapshots([s[2]]))
        right = merge_snapshots([s[0]])
        right.merge(merge_snapshots([s[1], s[2]]))
        assert canonical_json(left.to_json()) == canonical_json(right.to_json())

    def test_live_merge_equals_final_serial(self, tmp_path):
        config = small_config()
        aggregate, _, telemetry = run_with_telemetry(tmp_path, config)
        merged = merge_snapshots(scan_snapshots(telemetry).values())
        assert canonical_json(merged.to_json()) == canonical_json(aggregate.to_json())

    def test_live_merge_equals_final_sharded(self, tmp_path):
        config = small_config()
        aggregate, _, telemetry = run_with_telemetry(tmp_path, config, jobs=2)
        merged = merge_snapshots(scan_snapshots(telemetry).values())
        assert canonical_json(merged.to_json()) == canonical_json(aggregate.to_json())

    def test_live_merge_equals_final_after_kill_and_resume(self, tmp_path):
        """Crash after chunk 0, resume with telemetry: the snapshot set
        covers adopted AND fresh chunks, and still merges byte-identical
        to the uninterrupted campaign."""
        config = small_config()
        uninterrupted = run_campaign(config, jobs=1)
        checkpoint = tmp_path / "cp.json"
        partial = CheckpointState(
            key=config.key(),
            config=config.to_json(),
            n_chunks=config.n_chunks,
            chunks={0: run_chunk(config, 0)},
        )
        save_checkpoint(checkpoint, partial)
        telemetry = default_telemetry_dir(checkpoint)
        resumed = run_campaign(
            config,
            checkpoint_path=checkpoint,
            jobs=1,
            resume=True,
            telemetry_dir=telemetry,
        )
        snapshots = scan_snapshots(telemetry)
        assert sorted(snapshots) == list(range(config.n_chunks))
        # The adopted chunk's wall-clock cost is unknown; fresh chunks
        # carry real elapsed timings.
        assert snapshots[0].timing["elapsed_s"] is None
        merged = merge_snapshots(snapshots.values())
        assert canonical_json(merged.to_json()) == canonical_json(resumed.to_json())
        assert canonical_json(merged.to_json()) == canonical_json(
            uninterrupted.to_json()
        )

    def test_stale_foreign_snapshots_are_cleared_on_run(self, tmp_path):
        config = small_config()
        checkpoint = tmp_path / "cp.json"
        telemetry = default_telemetry_dir(checkpoint)
        telemetry.mkdir(parents=True)
        stale = snapshot_path(telemetry, 7)
        stale.write_text(json.dumps({"schema_version": TELEMETRY_SCHEMA_VERSION}))
        aggregate = run_campaign(
            config, checkpoint_path=checkpoint, jobs=1, telemetry_dir=telemetry
        )
        assert not stale.exists()
        merged = merge_snapshots(scan_snapshots(telemetry).values())
        assert canonical_json(merged.to_json()) == canonical_json(aggregate.to_json())

    def test_merge_rejects_cross_campaign_and_duplicates(self, tmp_path):
        config = small_config()
        _, _, telemetry = run_with_telemetry(tmp_path, config)
        snapshots = scan_snapshots(telemetry)
        foreign = TelemetrySnapshot.for_chunk(
            "f" * 40, snapshots[0].n_chunks, 1, snapshots[0].aggregate
        )
        with pytest.raises(ValueError, match="belongs to campaign"):
            merge_snapshots([snapshots[0], foreign])
        with pytest.raises(ValueError, match="duplicate"):
            merge_snapshots([snapshots[0], snapshots[0]])
        with pytest.raises(ValueError, match="empty"):
            merge_snapshots([])


class TestSchemaAndDefensiveReads:
    def test_schema_version_skew_is_rejected_not_guessed(self, tmp_path):
        config = small_config()
        _, _, telemetry = run_with_telemetry(tmp_path, config)
        path = snapshot_path(telemetry, 0)
        payload = json.loads(path.read_text())
        payload["schema_version"] = TELEMETRY_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(TelemetrySchemaError):
            load_snapshot(path)
        with pytest.raises(TelemetrySchemaError):
            scan_snapshots(telemetry)

    def test_corrupt_snapshot_reads_as_none(self, tmp_path):
        """One read: a malformed or vanished file is ``None`` at once."""
        path = tmp_path / "chunk-000000.json"
        path.write_text('{"schema_version": 1, "campaign')  # not a whole file
        assert load_snapshot(path) is None
        path.unlink()
        assert load_snapshot(path) is None

    def test_scan_skips_unreadable_files(self, tmp_path):
        config = small_config()
        _, _, telemetry = run_with_telemetry(tmp_path, config)
        snapshot_path(telemetry, 1).write_text("not json at all")
        snapshots = scan_snapshots(telemetry)
        assert sorted(snapshots) == [0, 2]

    def test_missing_directory_scans_empty(self, tmp_path):
        assert scan_snapshots(tmp_path / "nope") == {}

    def test_round_trip_preserves_payload(self, tmp_path):
        config = small_config()
        payload = run_chunk(config, 0)
        snapshot = TelemetrySnapshot.for_chunk(
            config.key(), config.n_chunks, 0, payload, elapsed_s=1.25
        )
        path = write_snapshot(tmp_path, snapshot)
        revived = load_snapshot(path)
        assert revived is not None
        assert canonical_json(revived.to_json()) == canonical_json(snapshot.to_json())

    def test_default_dir_derives_from_checkpoint(self, tmp_path):
        assert default_telemetry_dir(tmp_path / "c.json") == tmp_path / "c.json.telemetry"


class TestCountersAndLiveView:
    def test_counters_derived_from_aggregate(self):
        """A snapshot stores the aggregate alone; the live view's counters
        are the report's, read from that aggregate (a fault is a folded
        session that did not complete)."""
        config = small_config()
        payload = run_chunk(config, 0)
        snapshot = TelemetrySnapshot.for_chunk(config.key(), config.n_chunks, 0, payload)
        assert "counters" not in snapshot.to_json()
        report, _ = live_report({0: snapshot})
        for scheme in SCHEMES:
            for field in ("sessions", "completed"):
                assert report["schemes"][scheme][field] == payload["schemes"][scheme][field]
        assert report["total_sessions"] == payload_sessions(payload)

    def test_v1_snapshot_is_a_schema_skew(self, tmp_path):
        """v1 snapshots stored a derived ``counters`` copy; v2 readers
        refuse them rather than guess."""
        config = small_config()
        snapshot = TelemetrySnapshot.for_chunk(config.key(), config.n_chunks, 0, run_chunk(config, 0))
        payload = snapshot.to_json()
        payload["schema_version"] = 1
        payload["counters"] = {}
        path = snapshot_path(tmp_path, 0)
        path.write_text(json.dumps(payload))
        with pytest.raises(TelemetrySchemaError):
            load_snapshot(path)

    def test_live_status_tracks_progress_and_quantiles(self, tmp_path):
        config = small_config()
        aggregate, _, telemetry = run_with_telemetry(tmp_path, config)
        snapshots = scan_snapshots(telemetry)
        partial = {i: snapshots[i] for i in (0, 1)}
        _, progress = live_report(partial)
        assert progress.chunks_done == 2
        assert progress.n_chunks == config.n_chunks
        assert not progress.complete
        assert progress.eta_s is not None and progress.eta_s >= 0
        assert progress.sessions_per_s is not None
        report, full = live_report(snapshots)
        assert full.complete and full.eta_s == 0.0
        # Over every chunk the live report IS the campaign report.
        assert canonical_json(report) == canonical_json(build_report(aggregate, config.key()))
        for scheme in SCHEMES:
            ffct = report["schemes"][scheme]["ffct"]
            assert 0 < ffct["p50"] <= ffct["p90"] <= ffct["p99"]

    def test_live_status_requires_snapshots(self):
        with pytest.raises(ValueError):
            live_report({})

    def test_resume_rate_excludes_adopted_sessions(self):
        """Chunks adopted from a checkpoint (elapsed_s=None) were paid
        for by a previous run: they must not inflate sessions/sec, and
        the ETA must scale the current run's per-chunk cost."""
        config = small_config()
        key = config.key()
        payload0 = run_chunk(config, 0)
        payload1 = run_chunk(config, 1)
        adopted = TelemetrySnapshot.for_chunk(
            key, config.n_chunks, 0, payload0, elapsed_s=None
        )
        fresh = TelemetrySnapshot.for_chunk(
            key, config.n_chunks, 1, payload1, elapsed_s=2.0
        )
        report, progress = live_report({0: adopted, 1: fresh})
        fresh_sessions = payload_sessions(payload1)
        # Totals still cover the whole campaign so far ...
        assert report["total_sessions"] == payload_sessions(payload0) + fresh_sessions
        # ... but throughput reflects only what this run produced.
        assert progress.sessions_per_s == pytest.approx(fresh_sessions / 2.0)
        assert progress.eta_s == pytest.approx(2.0 * (config.n_chunks - 2))
        # All-adopted view: no current-run work yet, so no rate or ETA.
        _, only_adopted = live_report({0: adopted})
        assert only_adopted.sessions_per_s is None
        assert only_adopted.eta_s is None

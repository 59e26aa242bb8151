"""Tests for the ``tools/wira_fleet`` CLI: run / resume / status / verify /
report.

Campaigns are tiny but real — every test replays actual sessions — and
the determinism assertions compare the same report hash the CI smoke
job checks.
"""

import itertools
import json
import re
import threading

import pytest

from repro.fleet import (
    TELEMETRY_SCHEMA_VERSION,
    CheckpointState,
    FleetConfig,
    canonical_json,
    live_report,
    load_checkpoint,
    run_campaign,
    run_chunk,
    save_checkpoint,
    scan_snapshots,
)
from repro.fleet.telemetry import snapshot_path
from repro.workload import DeploymentConfig
from tools.wira_fleet.cli import EXIT_FAILED, EXIT_OK, main

SMALL = [
    "--od-pairs", "4", "--seed", "3",
    "--schemes", "baseline", "wira",
    "--chunk-chains", "2",
]


def small_config():
    return FleetConfig(
        population=DeploymentConfig(n_od_pairs=4, seed=3),
        schemes=("baseline", "wira"),
        chunk_chains=2,
    )


def read_report(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestRun:
    def test_run_writes_report_and_checkpoint(self, tmp_path, capsys):
        checkpoint = tmp_path / "cp.json"
        out = tmp_path / "report.json"
        code = main(
            ["run", *SMALL, "--quiet",
             "--checkpoint", str(checkpoint), "--out", str(out)]
        )
        assert code == EXIT_OK
        report = read_report(out)
        assert report["total_sessions"] > 0
        assert set(report["schemes"]) == {"baseline", "wira"}
        assert checkpoint.exists()
        assert "report hash:" in capsys.readouterr().out

    def test_serial_and_sharded_reports_identical(self, tmp_path):
        """The CLI-level determinism check CI runs on every push."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", *SMALL, "--quiet", "--jobs", "1", "--out", str(a)]) == EXIT_OK
        assert main(["run", *SMALL, "--quiet", "--jobs", "2", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestResume:
    def test_resume_completes_partial_campaign(self, tmp_path):
        config = small_config()
        checkpoint = tmp_path / "cp.json"
        save_checkpoint(
            checkpoint,
            CheckpointState(
                key=config.key(),
                config=config.to_json(),
                n_chunks=config.n_chunks,
                chunks={0: run_chunk(config, 0)},
            ),
        )
        resumed_out = tmp_path / "resumed.json"
        code = main(
            ["resume", "--checkpoint", str(checkpoint),
             "--quiet", "--out", str(resumed_out)]
        )
        assert code == EXIT_OK

        # Byte-identical to an uninterrupted CLI run of the same campaign.
        fresh_out = tmp_path / "fresh.json"
        assert main(["run", *SMALL, "--quiet", "--out", str(fresh_out)]) == EXIT_OK
        assert resumed_out.read_bytes() == fresh_out.read_bytes()

    def test_resume_without_checkpoint_fails(self, tmp_path, capsys):
        code = main(["resume", "--checkpoint", str(tmp_path / "nope.json"), "--quiet"])
        assert code == EXIT_FAILED
        assert "no usable checkpoint" in capsys.readouterr().err


class TestStatusAndReport:
    @pytest.fixture()
    def partial_checkpoint(self, tmp_path):
        config = small_config()
        path = tmp_path / "cp.json"
        save_checkpoint(
            path,
            CheckpointState(
                key=config.key(),
                config=config.to_json(),
                n_chunks=config.n_chunks,
                chunks={0: run_chunk(config, 0)},
            ),
        )
        return path

    def test_status_reports_progress(self, partial_checkpoint, capsys):
        assert main(["status", "--checkpoint", str(partial_checkpoint)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chunks:    1/2 completed" in out
        assert "resumable" in out

    def test_status_on_missing_checkpoint_fails(self, tmp_path, capsys):
        code = main(["status", "--checkpoint", str(tmp_path / "nope.json")])
        assert code == EXIT_FAILED

    def test_report_refuses_partial_without_flag(self, partial_checkpoint, capsys):
        code = main(["report", "--checkpoint", str(partial_checkpoint)])
        assert code == EXIT_FAILED
        assert "incomplete" in capsys.readouterr().err

    def test_partial_report_flagged(self, partial_checkpoint, tmp_path):
        out = tmp_path / "partial.json"
        code = main(
            ["report", "--checkpoint", str(partial_checkpoint),
             "--partial", "--out", str(out)]
        )
        assert code == EXIT_OK
        report = read_report(out)
        assert report["partial"] == {"chunks_completed": 1, "chunks_total": 2}

    def test_v1_checkpoint_refused_cleanly(self, tmp_path, capsys):
        """A checkpoint from before chunk payloads carried "phases"
        (format_version 1) must hit the designed "no usable checkpoint"
        error — not a KeyError traceback out of the merge."""
        config = small_config()
        path = tmp_path / "cp.json"
        chunk = run_chunk(config, 0)
        for scheme_payload in chunk["schemes"].values():
            del scheme_payload["phases"]
        payload = CheckpointState(
            key=config.key(),
            config=config.to_json(),
            n_chunks=config.n_chunks,
            chunks={0: chunk},
        ).to_json()
        payload["format_version"] = 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        for argv in (
            ["report", "--checkpoint", str(path), "--partial"],
            ["resume", "--checkpoint", str(path), "--quiet"],
            ["status", "--checkpoint", str(path)],
        ):
            assert main(argv) == EXIT_FAILED
            assert "no usable checkpoint" in capsys.readouterr().err

    def test_report_matches_run_output(self, tmp_path):
        checkpoint = tmp_path / "cp.json"
        run_out = tmp_path / "run.json"
        assert main(
            ["run", *SMALL, "--quiet",
             "--checkpoint", str(checkpoint), "--out", str(run_out)]
        ) == EXIT_OK
        report_out = tmp_path / "report.json"
        assert main(
            ["report", "--checkpoint", str(checkpoint), "--out", str(report_out)]
        ) == EXIT_OK
        assert run_out.read_bytes() == report_out.read_bytes()


class TestTelemetry:
    def completed_campaign(self, tmp_path):
        checkpoint = tmp_path / "cp.json"
        out = tmp_path / "report.json"
        code = main(
            ["run", *SMALL, "--quiet",
             "--checkpoint", str(checkpoint), "--out", str(out)]
        )
        assert code == EXIT_OK
        return checkpoint, checkpoint.parent / (checkpoint.name + ".telemetry")

    def test_run_with_telemetry_writes_snapshots(self, tmp_path):
        """``run --checkpoint P`` writes ``P.telemetry/chunk-*.json`` with
        no further flag; ``resume`` rewrites the adopted chunks' snapshots
        with ``elapsed_s`` null and times only the chunks it runs."""
        checkpoint, telemetry = self.completed_campaign(tmp_path)
        names = sorted(path.name for path in telemetry.glob("chunk-*.json"))
        assert names == ["chunk-000000.json", "chunk-000001.json"]
        state = load_checkpoint(checkpoint)
        save_checkpoint(
            checkpoint,
            CheckpointState(
                key=state.key,
                config=state.config,
                n_chunks=state.n_chunks,
                chunks={0: state.chunks[0]},
            ),
        )
        for path in telemetry.glob("chunk-*.json"):
            path.unlink()
        assert main(["resume", "--checkpoint", str(checkpoint), "--quiet"]) == EXIT_OK
        snapshots = scan_snapshots(telemetry)
        assert sorted(snapshots) == [0, 1]
        assert snapshots[0].timing["elapsed_s"] is None
        assert snapshots[1].timing["elapsed_s"] > 0

    def test_verify_passes_on_consistent_campaign(self, tmp_path, capsys):
        checkpoint, _ = self.completed_campaign(tmp_path)
        assert main(["verify", "--checkpoint", str(checkpoint)]) == EXIT_OK
        assert "byte-identical" in capsys.readouterr().out

    def test_verify_fails_on_missing_snapshot(self, tmp_path, capsys):
        checkpoint, telemetry = self.completed_campaign(tmp_path)
        snapshot_path(telemetry, 0).unlink()
        assert main(["verify", "--checkpoint", str(checkpoint)]) == EXIT_FAILED
        assert "missing snapshots" in capsys.readouterr().err

    def test_verify_fails_on_schema_skew(self, tmp_path, capsys):
        checkpoint, telemetry = self.completed_campaign(tmp_path)
        path = snapshot_path(telemetry, 0)
        payload = json.loads(path.read_text())
        payload["schema_version"] = TELEMETRY_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert main(["verify", "--checkpoint", str(checkpoint)]) == EXIT_FAILED
        assert "schema_version" in capsys.readouterr().err

    def test_live_status_renders_dashboard(self, tmp_path, capsys):
        checkpoint, _ = self.completed_campaign(tmp_path)
        code = main(
            ["status", "--checkpoint", str(checkpoint),
             "--live", "--polls", "1", "--interval", "0"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "chunks 2/2" in out
        assert "p50" in out
        assert "baseline" in out and "wira" in out

    def test_live_status_tolerates_stale_foreign_snapshot(self, tmp_path, capsys):
        """A snapshot left behind by a different campaign (polling
        across a restart) must be ignored, not crash the dashboard
        with exit 2 on the mixed-campaign merge."""
        checkpoint, telemetry = self.completed_campaign(tmp_path)
        foreign = json.loads(snapshot_path(telemetry, 0).read_text())
        foreign["campaign_key"] = "f" * 40
        foreign["chunk_index"] = 5
        foreign["n_chunks"] = 9
        snapshot_path(telemetry, 5).write_text(json.dumps(foreign))
        code = main(
            ["status", "--checkpoint", str(checkpoint),
             "--live", "--polls", "1", "--interval", "0"]
        )
        assert code == EXIT_OK
        assert "chunks 2/2" in capsys.readouterr().out

    def test_live_status_follows_a_restart_before_its_first_checkpoint(
        self, tmp_path, capsys
    ):
        """A fresh campaign over a finished one's checkpoint owns that
        checkpoint before its first chunk: stopped after one chunk, long
        before its first ``checkpoint_every``, plain ``status`` names the
        new campaign and the live view shows its one chunk of four."""
        checkpoint, telemetry = self.completed_campaign(tmp_path)
        config = FleetConfig(
            population=DeploymentConfig(n_od_pairs=8, seed=3),
            schemes=("baseline", "wira"),
            chunk_chains=2,
            checkpoint_every=100,
        )
        assert config.n_chunks == 4

        class Stop(Exception):
            pass

        def stop_after_one_chunk(done, total, sessions):
            if done == 1:
                raise Stop

        with pytest.raises(Stop):
            run_campaign(
                config,
                checkpoint_path=checkpoint,
                jobs=1,
                progress=stop_after_one_chunk,
                telemetry_dir=telemetry,
            )
        capsys.readouterr()
        assert main(["status", "--checkpoint", str(checkpoint)]) == EXIT_OK
        assert f"campaign:  {config.key()}" in capsys.readouterr().out
        code = main(
            ["status", "--checkpoint", str(checkpoint),
             "--live", "--polls", "1", "--interval", "0"]
        )
        assert code == EXIT_OK
        assert "chunks 1/4" in capsys.readouterr().out

    def test_report_html_warns_on_schema_skew(self, tmp_path, capsys):
        """Schema-skewed snapshots drop the HTML throughput section with
        a visible warning — silence would mask a version mismatch."""
        checkpoint, telemetry = self.completed_campaign(tmp_path)
        for index in (0, 1):
            path = snapshot_path(telemetry, index)
            payload = json.loads(path.read_text())
            payload["schema_version"] = TELEMETRY_SCHEMA_VERSION + 1
            path.write_text(json.dumps(payload))
        html_out = tmp_path / "report.html"
        code = main(
            ["report", "--checkpoint", str(checkpoint),
             "--html", str(html_out), "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "schema_version" in captured.err
        document = html_out.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "Live telemetry" not in document

    def test_live_status_waits_when_no_snapshots(self, tmp_path, capsys):
        config = small_config()
        checkpoint = tmp_path / "cp.json"
        save_checkpoint(
            checkpoint,
            CheckpointState(
                key=config.key(),
                config=config.to_json(),
                n_chunks=config.n_chunks,
                chunks={},
            ),
        )
        code = main(
            ["status", "--checkpoint", str(checkpoint),
             "--live", "--polls", "2", "--interval", "0"]
        )
        assert code == EXIT_OK
        assert "no telemetry snapshots yet" in capsys.readouterr().out

    def test_dashboard_and_html_print_one_rate(self, tmp_path, capsys):
        """Every frame of the dashboard prints the snapshots' progress
        rate, the one the HTML throughput rows print: no second,
        poll-clocked estimate that reads 0/s while no chunk lands."""
        checkpoint, telemetry = self.completed_campaign(tmp_path)
        snapshot_path(telemetry, 1).unlink()  # the campaign is mid-way again
        capsys.readouterr()
        assert main(
            ["status", "--checkpoint", str(checkpoint),
             "--live", "--polls", "2", "--interval", "0"]
        ) == EXIT_OK
        rates = re.findall(r"rate\s+(\d+\.\d)/s", capsys.readouterr().out)
        assert len(rates) == 2 and rates[0] == rates[1]
        html_out = tmp_path / "report.html"
        assert main(
            ["report", "--checkpoint", str(checkpoint),
             "--html", str(html_out), "--out", str(tmp_path / "r.json")]
        ) == EXIT_OK
        assert f"<th>sessions / second</th><td>{rates[0]}</td>" in html_out.read_text()

    def test_partial_html_throughput_covers_the_reported_chunks(self, tmp_path):
        """A checkpoint that lags its snapshots reports fewer chunks than
        were snapshotted; the throughput rows describe the reported ones."""
        checkpoint, _ = self.completed_campaign(tmp_path)
        state = load_checkpoint(checkpoint)
        save_checkpoint(
            checkpoint,
            CheckpointState(
                key=state.key,
                config=state.config,
                n_chunks=state.n_chunks,
                chunks={0: state.chunks[0]},
            ),
        )
        html_out = tmp_path / "report.html"
        out = tmp_path / "r.json"
        assert main(
            ["report", "--checkpoint", str(checkpoint), "--partial",
             "--html", str(html_out), "--out", str(out)]
        ) == EXIT_OK
        document = html_out.read_text()
        assert "<th>chunks completed</th><td>1</td>" in document
        total = read_report(out)["total_sessions"]
        assert f"<th>sessions replayed</th><td>{total}</td>" in document

    @pytest.mark.parametrize("leg", ["serial", "jobs2", "resumed"])
    def test_live_report_equals_partial_report_over_any_chunks(self, tmp_path, leg):
        """For every subset of chunk snapshots, the live view's report is
        ``report --partial``'s over the same chunks (less its
        ``partial`` marker)."""
        config = small_config().with_(population=DeploymentConfig(n_od_pairs=6, seed=3))
        checkpoint = tmp_path / "cp.json"
        run_args = [
            "--od-pairs", "6", "--seed", "3", "--schemes", "baseline", "wira",
            "--chunk-chains", "2", "--quiet",
            "--checkpoint", str(checkpoint),
        ]
        if leg == "resumed":
            save_checkpoint(
                checkpoint,
                CheckpointState(
                    key=config.key(),
                    config=config.to_json(),
                    n_chunks=config.n_chunks,
                    chunks={0: run_chunk(config, 0)},
                ),
            )
            argv = ["resume", "--checkpoint", str(checkpoint), "--quiet"]
        else:
            argv = ["run", *run_args, "--jobs", "2" if leg == "jobs2" else "1"]
        assert main(argv) == EXIT_OK
        state = load_checkpoint(checkpoint)
        assert state.key == config.key() and state.complete
        snapshots = scan_snapshots(checkpoint.parent / (checkpoint.name + ".telemetry"))
        assert sorted(snapshots) == [0, 1, 2]
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(3), size):
                name = "-".join(map(str, subset))
                partial = tmp_path / f"cp-{name}.json"
                save_checkpoint(
                    partial,
                    CheckpointState(
                        key=state.key,
                        config=state.config,
                        n_chunks=state.n_chunks,
                        chunks={i: state.chunks[i] for i in subset},
                    ),
                )
                out = tmp_path / f"report-{name}.json"
                assert main(
                    ["report", "--checkpoint", str(partial), "--partial", "--out", str(out)]
                ) == EXIT_OK
                expected = read_report(out)
                expected.pop("partial", None)
                live, progress = live_report({i: snapshots[i] for i in subset})
                assert progress.chunks_done == size
                assert canonical_json(live["schemes"]) == canonical_json(expected["schemes"])
                assert canonical_json(live) == canonical_json(expected)

    def test_report_html_artifact(self, tmp_path):
        checkpoint, _ = self.completed_campaign(tmp_path)
        html_out = tmp_path / "report.html"
        code = main(
            ["report", "--checkpoint", str(checkpoint),
             "--html", str(html_out), "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_OK
        document = html_out.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "Live telemetry" in document  # snapshots feed the section
        assert "polyline" in document


class TestWriterRace:
    #: Reads per command while the writer runs.
    READS = 50

    def test_status_survives_concurrent_writer(self, tmp_path, capsys):
        """``status`` and ``report --partial`` read a checkpoint that a
        campaign's own writer (``save_checkpoint``: tempfile, then
        ``os.replace``) rewrites on another thread; each read sees one
        whole file, so every read exits 0."""
        config = small_config()
        checkpoint = tmp_path / "cp.json"
        chunks = {i: run_chunk(config, i) for i in range(config.n_chunks)}
        states = [
            CheckpointState(
                key=config.key(),
                config=config.to_json(),
                n_chunks=config.n_chunks,
                chunks={i: chunks[i] for i in range(done)},
            )
            for done in (1, 2)
        ]
        save_checkpoint(checkpoint, states[0])
        stop = threading.Event()
        writes = itertools.count()

        def writer():
            while not stop.is_set():
                save_checkpoint(checkpoint, states[next(writes) % 2])

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            codes = [
                main(argv)
                for argv in (
                    ["status", "--checkpoint", str(checkpoint)],
                    ["report", "--checkpoint", str(checkpoint), "--partial",
                     "--out", str(tmp_path / "r.json")],
                )
                for _ in range(self.READS)
            ]
        finally:
            stop.set()
            thread.join()
        assert next(writes) > 2  # the writer really ran alongside
        assert codes == [EXIT_OK] * (2 * self.READS)
        assert "error" not in capsys.readouterr().err

"""Tests for the ``tools/wira_trace`` CLI: validate / summarize / diff.

Trace sets are generated by real testbed sessions under an active bus, so
the CLI is exercised against exactly what the instrumentation writes.
"""

import json

import pytest

from repro import obs
from repro.cdn.session import PHASES
from repro.experiments import common
from tools.wira_trace.cli import (
    EXIT_ERROR,
    EXIT_INVALID,
    EXIT_OK,
    collect_trace_files,
    group_sessions,
    main,
    session_label,
)


@pytest.fixture(autouse=True)
def restore_bus():
    previous = obs.ACTIVE
    yield
    obs.ACTIVE = previous


def write_traces(trace_dir, cwnd_bytes=66_000, pacing_bps=8_000_000.0):
    """One testbed session's trace files; returns its SessionResult."""
    with obs.tracing(trace_dir=trace_dir):
        return common.run_testbed_session(
            common.manual_params(cwnd_bytes, pacing_bps)
        )


@pytest.fixture(scope="module")
def trace_sets(tmp_path_factory):
    """A slow-start-like set (a) and a Wira-like set (b)."""
    previous = obs.ACTIVE
    root = tmp_path_factory.mktemp("traces")
    slow = write_traces(root / "a", cwnd_bytes=14_600, pacing_bps=1_200_000.0)
    fast = write_traces(root / "b", cwnd_bytes=66_000, pacing_bps=8_000_000.0)
    obs.ACTIVE = previous
    assert slow.completed and fast.completed
    assert fast.ffct < slow.ffct  # the diff below must have a signal
    return root / "a", root / "b"


class TestHelpers:
    def test_session_label_splits_on_double_dash(self, trace_sets):
        a_dir, _ = trace_sets
        labels = {session_label(p) for p in a_dir.glob("*.jsonl")}
        assert labels == {"baseline-seed0"}

    def test_collect_expands_dirs_sorted_unique(self, trace_sets):
        a_dir, _ = trace_sets
        files = collect_trace_files([str(a_dir), str(a_dir)])
        assert files == sorted(set(files))
        assert len(files) == 2

    def test_collect_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            collect_trace_files(["/no/such/trace/dir"])

    def test_group_sessions(self, trace_sets):
        a_dir, _ = trace_sets
        groups = group_sessions(collect_trace_files([str(a_dir)]))
        assert list(groups) == ["baseline-seed0"]
        assert len(groups["baseline-seed0"]) == 2


class TestValidate:
    def test_valid_set_exits_zero(self, trace_sets, capsys):
        a_dir, _ = trace_sets
        assert main(["validate", str(a_dir)]) == EXIT_OK
        assert "0 invalid" in capsys.readouterr().out

    def test_corrupted_file_exits_one(self, trace_sets, tmp_path, capsys):
        a_dir, _ = trace_sets
        for path in a_dir.glob("*.jsonl"):
            copy = tmp_path / path.name
            copy.write_text(path.read_text())
        victim = sorted(tmp_path.glob("*.jsonl"))[0]
        victim.write_text(victim.read_text() + "{broken\n")
        assert main(["validate", str(tmp_path)]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert victim.name in out and "not valid JSON" in out

    def test_json_report(self, trace_sets, capsys):
        a_dir, _ = trace_sets
        assert main(["validate", "--json", str(a_dir)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["files_checked"] == 2
        assert report["files_invalid"] == 0

    def test_unknown_names_rejected_unless_allowed(self, tmp_path, capsys):
        lines = [
            obs.encode_record(
                0.0, "trace:meta", "ab", {"schema_version": obs.SCHEMA_VERSION, "label": "x"}
            ),
            obs.encode_record(0.1, "future:event", "ab", {}),
        ]
        (tmp_path / "x--ab.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["validate", str(tmp_path)]) == EXIT_INVALID
        capsys.readouterr()
        assert main(["validate", "--allow-unknown-names", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()

    def test_no_files_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == EXIT_ERROR
        assert "no trace files" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["validate", "/no/such/dir"]) == EXIT_ERROR
        capsys.readouterr()


class TestSummarize:
    def test_text_output_has_ffct_and_phases(self, trace_sets, capsys):
        a_dir, _ = trace_sets
        assert main(["summarize", str(a_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "baseline-seed0" in out and "ffct" in out
        for phase in ("handshake=", "transmit=", "stalls="):
            assert phase in out

    def test_json_output_structure(self, trace_sets, capsys):
        a_dir, _ = trace_sets
        assert main(["summarize", "--json", str(a_dir)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        (session,) = report["sessions"]
        assert session["session"] == "baseline-seed0"
        assert session["counts"]["session:first_frame"] == 1
        assert session["ffct"] == pytest.approx(
            sum(session["phases"].values()), abs=1e-9
        )
        assert report["sessions_profiled"] == 1
        assert set(report["mean_phases"]) == set(PHASES)

    def test_no_files_exits_two(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path)]) == EXIT_ERROR
        capsys.readouterr()


class TestDiff:
    def test_diff_attributes_saving_to_transmit(self, trace_sets, capsys):
        a_dir, b_dir = trace_sets
        assert main(["diff", "--json", str(a_dir), str(b_dir)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        # The two sets differ only in (cwnd, pacing) init, so the entire
        # FFCT delta must come from transmit (+stalls), not handshake or
        # origin — the paper's core attribution claim.
        assert report["delta"]["total"] < 0
        assert report["delta"]["handshake"] == pytest.approx(0.0, abs=1e-9)
        assert report["delta"]["origin"] == pytest.approx(0.0, abs=1e-9)
        assert report["delta"]["transmit"] + report["delta"]["stalls"] == pytest.approx(
            report["delta"]["total"], abs=1e-9
        )

    def test_text_output_tabulates_phases(self, trace_sets, capsys):
        a_dir, b_dir = trace_sets
        assert main(["diff", str(a_dir), str(b_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "delta (b-a)" in out
        for phase in PHASES:
            assert phase in out

    def test_missing_side_exits_two(self, trace_sets, capsys):
        a_dir, _ = trace_sets
        assert main(["diff", str(a_dir), "/no/such/dir"]) == EXIT_ERROR
        capsys.readouterr()

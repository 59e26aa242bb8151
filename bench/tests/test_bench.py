"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``.

Tier-1's ``testpaths`` stays ``tests``; these run on their own.  One
module-scoped smoke (``run --with-trace`` at 5 % scale, well under a
minute) feeds most checks, so the workloads are replayed once.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import ROOT, cli, compare, layers, measure
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def declaration():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``bench run --scale 0.05 --runs 1 --with-trace``, once per module."""
    path = tmp_path_factory.mktemp("bench") / "smoke.json"
    started = time.monotonic()
    code = cli.main(["run", "--scale", "0.05", "--runs", "1", "--with-trace", "--json", str(path)])
    elapsed = time.monotonic() - started
    return {"code": code, "elapsed": elapsed, "document": json.loads(path.read_text())}


class TestSmoke:
    def test_run_and_trace_pass_in_under_a_minute(self, smoke):
        assert smoke["code"] == 0
        assert smoke["elapsed"] < 60.0

    def test_every_workload_reports_every_end_to_end_metric(self, smoke, declaration):
        declared = {m["name"]: m["unit"] for m in declaration["end_to_end"]}
        assert set(smoke["document"]["workloads"]) == {w["name"] for w in declaration["workloads"]}
        for summary in smoke["document"]["workloads"].values():
            emitted = {name: row["unit"] for name, row in summary["metrics"].items()}
            assert emitted == declared
            assert summary["failed"] == 0 and summary["problems"] == []
            assert all(row["median"] > 0 for row in summary["metrics"].values())

    def test_every_workload_emits_exactly_the_declared_per_layer_metrics(
        self, smoke, declaration
    ):
        declared = {m["name"] for m in declaration["per_layer"]}
        for workload, per_layer in smoke["document"]["trace"].items():
            assert set(per_layer) == declared, workload

    def test_declared_units_are_the_units_the_code_reports(self, declaration):
        for metric in declaration["end_to_end"] + declaration["per_layer"]:
            assert cli.unit_of(metric["name"]) == metric["unit"]

    def test_ledger_sums_to_the_traced_total(self, smoke):
        for workload, per_layer in smoke["document"]["trace"].items():
            parts = sum(
                value
                for name, value in per_layer.items()
                if name.endswith(".self_ms") or name == "host.idle_ms"
            )
            total = per_layer["trace.ledger_total_ms"]
            assert total > 0, workload
            assert abs(parts - total) <= 0.01 * total, workload

    def test_layers_that_do_not_run_read_zero_and_those_that_do_do_not(self, smoke):
        trace = smoke["document"]["trace"]
        assert trace["figure_replay"]["serve.self_ms"] == 0.0
        assert trace["figure_replay"]["host.idle_ms"] == 0.0
        assert trace["serve_edge"]["serve.self_ms"] > 0.0
        assert trace["serve_edge"]["socketio.self_ms"] > 0.0
        assert trace["adverse_matrix"]["faults.self_ms"] > 0.0
        assert trace["fleet_campaign"]["fleet.self_ms"] > 0.0
        for per_layer in trace.values():
            assert per_layer["quic.conn.self_ms"] > 0.0
            assert per_layer["simnet.events_per_session"] > 0.0

    def test_serve_result_says_how_traffic_travelled(self, smoke):
        inputs = smoke["document"]["workloads"]["serve_edge"]["inputs"]
        assert inputs["network"] == "loopback"
        assert inputs["load"] == "closed loop"
        assert inputs["clients"] == 32
        assert "EventLoop" in inputs["loop"]

    def test_simulator_workloads_carry_a_digest_and_serve_does_not(self, smoke):
        workloads = smoke["document"]["workloads"]
        for name in ("figure_replay", "fleet_campaign", "adverse_matrix"):
            assert re.fullmatch(r"[0-9a-f]{64}", workloads[name]["outcome_digest"])
        assert workloads["serve_edge"]["outcome_digest"] is None

    def test_spans_are_written_with_the_trace(self, smoke):
        written = json.loads((ROOT / "bench" / "out" / "trace-adverse_matrix.json").read_text())
        names = {span["name"] for span in written["spans"]}
        assert {"run", "setup", "import", "inputs", "warmup", "timed", "run_cell"} <= names
        by_id = {span["id"]: span for span in written["spans"]}
        cell = next(span for span in written["spans"] if span["name"] == "run_cell")
        assert by_id[cell["parent"]]["name"] == "timed"
        assert cell["end"] >= cell["start"]


class TestContract:
    def test_names_units_and_limits(self, declaration):
        assert set(declaration) == {
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        }
        assert declaration["paths"] == ["bench"]
        assert declaration["command"] == ["python3", "-m", "bench", "one"]
        assert declaration["run_seconds"] == cli.RUN_SECONDS
        assert [w["name"] for w in declaration["workloads"]] == list(WORKLOADS)
        for workload in declaration["workloads"]:
            assert set(workload) == {"name", "why"}
            assert workload["why"] == WORKLOADS[workload["name"]].why
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names = [m["name"] for m in declaration["end_to_end"] + declaration["per_layer"]]
        names += [w["name"] for w in declaration["workloads"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for metric in declaration["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
        # The issue fixed 8 / 8 / 10 / 10 %.  The README ("The bound …") holds
        # the measurements behind each wider bound; widening one further
        # needs new measurements there and an edit here.
        assert {m["name"]: m["bound"] for m in declaration["end_to_end"]} == {
            "sessions_per_s": 0.25,
            "cpu_ms_per_session": 0.25,
            "peak_rss_mb": 0.15,
            "setup_s": 0.25,
        }
        for metric in declaration["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in declaration["end_to_end"] + declaration["per_layer"]:
            assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert 1 <= len(declaration["per_layer"]) <= 128
        setup = next(m for m in declaration["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in declaration["end_to_end"])

    def test_one_prints_the_contract_line_last(self):
        done = subprocess.run(
            [sys.executable, "-m", "bench", "one", "--workload", "adverse_matrix"]
            + ["--seed", "5", "--seconds", "0.3", "--trace", "0"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(measure.END_TO_END)
        for name, entry in line["metrics"].items():
            assert set(entry) == {"value", "unit"} and entry["value"] > 0
            assert entry["unit"] == measure.END_TO_END[name]

    def test_exits_nonzero_without_a_result_where_there_is_no_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(
            ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        done = subprocess.run(
            [sys.executable, "-m", "bench", "one", "--workload", "figure_replay"]
            + ["--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        assert done.returncode != 0
        assert done.stdout.strip() == ""


class TestLayerTable:
    def test_every_module_under_src_repro_has_a_layer(self):
        package = ROOT / "src" / "repro"
        modules = sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py"))
        assert len(modules) > 100
        unmapped = [m for m in modules if layers.layer_of_module(m) not in layers.LAYERS]
        assert unmapped == []

    def test_an_unknown_module_has_no_layer(self):
        assert layers.layer_of_module("quic/brand_new.py") is None
        assert layers.layer_of_module("newpackage/thing.py") is None
        assert layers.layer_of_module("quic/cc/anything.py") == "quic.cc"


def _fake_run(failed=0, problems=()):
    def fake(workload, seed, seconds, sim_seed=None):
        return {
            "workload": workload,
            "ops": 10,
            "failed": failed,
            "problems": list(problems),
            "outcome_digest": "0" * 64,
            "sim": {},
            "inputs": {},
            "metrics": {name: 1.0 for name in measure.END_TO_END},
        }

    return fake


class TestExitCodes:
    ARGS = ["run", "--runs", "1", "--workload", "figure_replay"]

    def test_clean_run_exits_zero(self, monkeypatch):
        monkeypatch.setattr(measure, "measure", _fake_run())
        assert cli.main(self.ARGS) == 0

    def test_failed_sessions_exit_nonzero(self, monkeypatch):
        monkeypatch.setattr(measure, "measure", _fake_run(failed=1))
        assert cli.main(self.ARGS) == 1

    def test_a_failed_output_check_exits_nonzero(self, monkeypatch):
        monkeypatch.setattr(measure, "measure", _fake_run(problems=["direction"]))
        assert cli.main(self.ARGS) == 1

    def test_differing_digests_between_runs_exit_nonzero(self, monkeypatch):
        digests = iter(["a" * 64, "b" * 64])
        clean = _fake_run()

        def fake(*args, **kwargs):
            return {**clean(*args, **kwargs), "outcome_digest": next(digests)}

        monkeypatch.setattr(measure, "measure", fake)
        assert cli.main(["run", "--runs", "2", "--workload", "figure_replay"]) == 1


def _row(median, low=None, high=None):
    return {"median": median, "min": low or median, "max": high or median, "n": 3}


class TestCompare:
    def test_verdicts(self):
        bound = 0.10
        assert compare.verdict(_row(100), _row(85), "higher", bound)[0] == compare.REGRESSED
        assert compare.verdict(_row(100), _row(115), "lower", bound)[0] == compare.REGRESSED
        assert compare.verdict(_row(100), _row(97), "higher", bound)[0] == compare.UNCHANGED
        assert compare.verdict(_row(100), _row(130), "higher", bound)[0] == compare.UNCHANGED
        noisy = _row(100, 90, 105)
        assert compare.verdict(noisy, _row(97), "higher", bound)[0] == compare.UNRESOLVED
        # A regression beyond the bound stays a regression, however noisy.
        assert compare.verdict(noisy, _row(80), "higher", bound)[0] == compare.REGRESSED

    def test_two_files(self, tmp_path, capsys):
        def document(rate, codec):
            metrics = {name: _row(10.0) for name in measure.END_TO_END}
            metrics["sessions_per_s"] = _row(rate)
            return {
                "machine": {},
                "workloads": {"figure_replay": {"metrics": metrics, "outcome_digest": "d"}},
                "trace": {
                    "figure_replay": {
                        "quic.codec.self_ms": codec,
                        "media.self_ms": 2.0,
                        "trace.ledger_total_ms": codec + 2.0,
                    }
                },
            }

        (tmp_path / "a.json").write_text(json.dumps(document(40.0, 8.0)))
        (tmp_path / "b.json").write_text(json.dumps(document(28.0, 5.5)))
        assert cli.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
        assert cli.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
        printed = capsys.readouterr().out
        assert "regressed" in printed and "B/A = 0.700 (base 40" in printed
        assert "quic.codec.self_ms" in printed and "-31.2 %" in printed

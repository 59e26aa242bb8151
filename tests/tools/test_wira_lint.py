"""Fixture tests for the wira-lint determinism linter.

Each rule gets three fixtures: a positive hit, the same snippet with a
suppressing pragma, and a clean variant.  Snippets are linted via
``lint_source`` under a *virtual* path inside the rule's zone (e.g.
``src/repro/simnet/fixture.py``), so zone scoping applies exactly as it
would in CI.  The CLI tests write real files under ``tmp_path`` with the
same mirrored layout.
"""

import json
import textwrap
from pathlib import Path

import pytest

from tools.wira_lint import RULES, lint_paths, lint_source
from tools.wira_lint.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_VIOLATIONS, main
from tools.wira_lint.engine import PARSE_ERROR_CODE
from tools.wira_lint.report import render_json

REPO_ROOT = Path(__file__).resolve().parents[2]
SIM_PATH = "src/repro/simnet/fixture.py"
QUIC_PATH = "src/repro/quic/fixture.py"
SRC_PATH = "src/repro/metrics/fixture.py"
TEST_PATH = "tests/simnet/fixture.py"


def codes(source, path):
    return [v.code for v in lint_source(textwrap.dedent(source), path)]


# ---------------------------------------------------------------------------
# WL001: wall-clock reads in simulation code.


class TestWL001WallClock:
    def test_time_time_flagged(self):
        src = """
            import time

            def stamp() -> float:
                return time.time()
        """
        assert "WL001" in codes(src, SIM_PATH)

    def test_time_monotonic_flagged(self):
        src = """
            import time

            def stamp() -> float:
                return time.monotonic()
        """
        assert "WL001" in codes(src, SIM_PATH)

    def test_datetime_now_flagged_through_from_import(self):
        src = """
            from datetime import datetime

            def stamp() -> object:
                return datetime.now()
        """
        assert "WL001" in codes(src, SIM_PATH)

    def test_aliased_import_resolved(self):
        src = """
            import time as _t

            def stamp() -> float:
                return _t.time()
        """
        assert "WL001" in codes(src, SIM_PATH)

    def test_pragma_suppresses(self):
        src = """
            import time

            def stamp() -> float:
                return time.time()  # wira-lint: disable=WL001
        """
        assert "WL001" not in codes(src, SIM_PATH)

    def test_clean_sim_clock_usage(self):
        src = """
            def stamp(loop) -> float:  # wira-lint: disable=WL006
                return loop.now
        """
        assert codes(src, SIM_PATH) == []

    def test_outside_sim_zone_not_flagged(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert "WL001" not in codes(src, TEST_PATH)

    def test_direct_read_in_media_flagged(self):
        # media and cdn feed replayed results too: the replay zone is
        # wider than the transport core.
        src = """
            import time

            def frame_stamp():
                return time.time()
        """
        assert "WL001" in codes(src, "src/repro/media/fixture.py")

    def test_time_perf_counter_also_banned_in_sim_zone(self):
        # Benchmarks measure wall time from benchmarks/ (outside the sim
        # zone); inside it, every process clock poisons determinism.
        src = """
            import time

            def stamp() -> float:
                return time.perf_counter()
        """
        assert "WL001" in codes(src, SIM_PATH)


# ---------------------------------------------------------------------------
# WL002: unseeded / global randomness.


class TestWL002Randomness:
    def test_module_level_random_flagged(self):
        src = """
            import random

            def jitter() -> float:
                return random.random()
        """
        assert "WL002" in codes(src, SIM_PATH)

    def test_unseeded_random_instance_flagged(self):
        src = """
            import random

            def make_rng() -> object:
                return random.Random()
        """
        assert "WL002" in codes(src, SIM_PATH)

    def test_hardcoded_seed_flagged(self):
        src = """
            import random

            def make_rng() -> object:
                return random.Random(0)
        """
        assert "WL002" in codes(src, SIM_PATH)

    def test_pragma_suppresses(self):
        src = """
            import random

            def make_rng() -> object:
                return random.Random(0)  # wira-lint: disable=WL002
        """
        assert "WL002" not in codes(src, SIM_PATH)

    def test_caller_seeded_rng_clean(self):
        src = """
            import random

            def make_rng(seed: int) -> object:
                return random.Random(seed)
        """
        assert codes(src, SIM_PATH) == []

    def test_from_import_flagged(self):
        src = """
            from random import random

            def jitter() -> float:
                return random()
        """
        assert "WL002" in codes(src, SIM_PATH)

    def test_global_rng_in_cdn_flagged(self):
        src = """
            import random

            def pick(origins):
                return random.choice(origins)
        """
        assert "WL002" in codes(src, "src/repro/cdn/fixture.py")


# ---------------------------------------------------------------------------
# WL003: float equality on time/rate quantities.


class TestWL003FloatEquality:
    def test_time_named_equality_flagged(self):
        src = """
            def check(rtt_a, rtt_b):
                return rtt_a == rtt_b
        """
        assert "WL003" in codes(src, SRC_PATH)

    def test_float_literal_equality_flagged(self):
        src = """
            def check(gain):
                return gain == 0.75
        """
        assert "WL003" in codes(src, SRC_PATH)

    def test_pragma_suppresses(self):
        src = """
            def check(rtt_a, rtt_b):
                return rtt_a == rtt_b  # wira-lint: disable=WL003
        """
        assert "WL003" not in codes(src, SRC_PATH)

    def test_named_constant_comparison_clean(self):
        src = """
            MAX_BW_BPS = b"MBPS"

            def check(tag):
                return tag == MAX_BW_BPS
        """
        assert codes(src, SRC_PATH) == []

    def test_infinity_comparison_clean(self):
        src = """
            def check(deadline):
                return deadline == float("inf")
        """
        assert codes(src, SRC_PATH) == []

    def test_int_comparison_clean(self):
        src = """
            def check(count, total):
                return count == total
        """
        assert codes(src, SRC_PATH) == []


# ---------------------------------------------------------------------------
# WL004: hot-path classes must declare __slots__.


class TestWL004Slots:
    def test_registry_class_without_slots_flagged(self):
        src = """
            class Pacer:
                def __init__(self) -> None:
                    self.tokens = 0.0
        """
        assert "WL004" in codes(src, QUIC_PATH)

    def test_slots_declaration_clean(self):
        src = """
            class Pacer:
                __slots__ = ("tokens",)

                def __init__(self) -> None:
                    self.tokens = 0.0
        """
        assert codes(src, QUIC_PATH) == []

    def test_dataclass_slots_clean(self):
        src = """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class SentPacket:
                packet_number: int
        """
        assert codes(src, QUIC_PATH) == []

    def test_pragma_suppresses(self):
        src = """
            class Link:  # wira-lint: disable=WL004
                def __init__(self) -> None:
                    self.rate = 0.0
        """
        assert "WL004" not in codes(src, SIM_PATH)

    def test_unregistered_class_clean(self):
        src = """
            class SessionResult:
                def __init__(self) -> None:
                    self.ffct = None
        """
        assert "WL004" not in codes(src, SIM_PATH)


# ---------------------------------------------------------------------------
# WL005: dict-ordering-dependent iteration in merge paths.


class TestWL005MergeOrdering:
    def test_dict_values_in_merge_flagged(self):
        src = """
            def merge_results(shards: dict) -> list:
                out = []
                for shard in shards.values():
                    out.append(shard)
                return out
        """
        assert "WL005" in codes(src, SRC_PATH)

    def test_replay_function_also_matches(self):
        src = """
            def replay_cached(entries: dict) -> list:
                return [v for v in entries.values()]
        """
        assert "WL005" in codes(src, SRC_PATH)

    def test_sorted_iteration_clean(self):
        src = """
            def merge_results(shards: dict) -> list:
                out = []
                for key in sorted(shards.keys()):
                    out.append(shards[key])
                return out
        """
        assert codes(src, SRC_PATH) == []

    def test_non_merge_function_clean(self):
        src = """
            def collect(shards: dict) -> list:
                return [v for v in shards.values()]
        """
        assert "WL005" not in codes(src, SRC_PATH)

    def test_pragma_suppresses(self):
        src = """
            def merge_results(shards: dict) -> list:
                return [v for v in shards.values()]  # wira-lint: disable=WL005
        """
        assert "WL005" not in codes(src, SRC_PATH)


# ---------------------------------------------------------------------------
# WL006: typed defs in the quic/simnet zones.


class TestWL006TypedDefs:
    def test_untyped_def_flagged(self):
        src = """
            def pace(size, now):
                return size / now
        """
        assert "WL006" in codes(src, QUIC_PATH)

    def test_missing_return_annotation_flagged(self):
        src = """
            def pace(size: int, now: float):
                return size / now
        """
        assert "WL006" in codes(src, QUIC_PATH)

    def test_fully_typed_clean(self):
        src = """
            def pace(size: int, now: float) -> float:
                return size / now
        """
        assert codes(src, QUIC_PATH) == []

    def test_self_and_cls_exempt(self):
        src = """
            class Pacer:
                __slots__ = ()

                def rate(self) -> float:
                    return 0.0

                @classmethod
                def default(cls) -> "Pacer":
                    return cls()
        """
        assert codes(src, QUIC_PATH) == []

    def test_not_applied_outside_typed_zone(self):
        src = """
            def helper(x):
                return x
        """
        assert "WL006" not in codes(src, SRC_PATH)


# ---------------------------------------------------------------------------
# WL007: no bare print() in library code.


class TestWL007BarePrint:
    def test_print_flagged_in_library_code(self):
        src = """
            def debug(x: int) -> int:
                print(x)
                return x
        """
        assert "WL007" in codes(src, SRC_PATH)
        assert "WL007" in codes(src, "src/repro/cdn/fixture.py")

    def test_pragma_suppresses(self):
        src = """
            def debug(x: int) -> int:
                print(x)  # wira-lint: disable=WL007
                return x
        """
        assert "WL007" not in codes(src, SRC_PATH)

    def test_experiments_zone_exempt(self):
        # Figure scripts report to stdout by design.
        src = """
            def report(x: int) -> None:
                print(x)
        """
        assert "WL007" not in codes(src, "src/repro/experiments/fixture.py")

    def test_report_module_exempt(self):
        src = """
            def show(table: object) -> None:
                print(table)
        """
        assert "WL007" not in codes(src, "src/repro/metrics/report.py")

    def test_tests_zone_not_covered(self):
        src = """
            def noisy() -> None:
                print("debugging")
        """
        assert "WL007" not in codes(src, TEST_PATH)

    def test_method_named_print_clean(self):
        src = """
            def show(table) -> None:
                table.print()
        """
        assert "WL007" not in codes(src, SRC_PATH)


# ---------------------------------------------------------------------------
# Pragma machinery.


class TestPragmas:
    def test_file_wide_disable(self):
        src = """
            # wira-lint: disable-file=WL002
            import random

            def a() -> float:
                return random.random()

            def b() -> float:
                return random.random()
        """
        assert codes(src, SIM_PATH) == []

    def test_multiple_codes_one_pragma(self):
        src = """
            import time, random

            def stamp() -> float:
                return time.time() + random.random()  # wira-lint: disable=WL001,WL002
        """
        assert codes(src, SIM_PATH) == []

    def test_pragma_only_covers_its_line(self):
        src = """
            import random

            def a() -> float:
                return random.random()  # wira-lint: disable=WL002

            def b() -> float:
                return random.random()
        """
        assert codes(src, SIM_PATH) == ["WL002"]


# ---------------------------------------------------------------------------
# Parse errors and the file walker.


class TestEngine:
    def test_parse_error_reported(self):
        found = lint_source("def broken(:\n", SIM_PATH)
        assert [v.code for v in found] == [PARSE_ERROR_CODE]

    def test_render_format(self):
        src = "import time\n\ndef f() -> float:\n    return time.time()\n"
        violation = lint_source(src, SIM_PATH)[0]
        rendered = violation.render()
        assert rendered.startswith(f"{SIM_PATH}:4:")
        assert "WL001" in rendered

    def test_out_of_zone_file_skipped_entirely(self):
        assert lint_source("import time\ntime.time()\n", "scripts/tool.py") == []

    def test_lint_paths_walks_mirrored_tree(self, tmp_path):
        zone = tmp_path / "src" / "repro" / "simnet"
        zone.mkdir(parents=True)
        (zone / "bad.py").write_text("import time\n\n\ndef f() -> float:\n    return time.time()\n")
        (zone / "good.py").write_text("def f(x: int) -> int:\n    return x\n")
        violations, scanned = lint_paths([str(tmp_path)])
        assert scanned == 2
        assert [v.code for v in violations] == ["WL001"]

    def test_pycache_skipped(self, tmp_path):
        cache = tmp_path / "src" / "repro" / "simnet" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "junk.py").write_text("import time\ntime.time()\n")
        violations, scanned = lint_paths([str(tmp_path)])
        assert scanned == 0 and violations == []

    def test_dot_directory_above_the_tree_is_walked(self, tmp_path):
        # Only dot directories *inside* a scanned tree are skipped; a
        # checkout under ``.work/`` or a path given as ``../repo`` lints.
        root = tmp_path / ".work"
        write_fixture(root, "src/repro/simnet/bad.py", "import time\n\ntime.time()\n")
        write_fixture(root, "src/repro/simnet/.hidden/skip.py", "import time\n\ntime.time()\n")
        violations, scanned = lint_paths([str(root)])
        assert scanned == 1
        assert [v.code for v in violations] == ["WL001"]

    def test_repository_tree_is_clean(self):
        # The CI ``lint`` job's gate, held by tier-1 too: every tree a
        # rule zone names.
        violations, scanned = lint_paths(
            [str(REPO_ROOT / tree) for tree in ("src", "tests", "tools", "examples")]
        )
        assert scanned > 0
        assert [v.render() for v in violations] == []

    def test_consecutive_runs_render_identical_reports(self, tmp_path):
        clock = "import time\n\n\ndef f() -> float:\n    return time.time()\n"
        dead_pragma = "def g() -> int:\n    return 1  # wira-lint: disable=WL003\n"
        write_fixture(tmp_path, "src/repro/simnet/bad.py", clock)
        write_fixture(tmp_path, "src/repro/simnet/dead.py", dead_pragma)
        first = render_json(*lint_paths([str(tmp_path)]))
        second = render_json(*lint_paths([str(tmp_path)]))
        assert first == second
        assert json.loads(first)["counts"] == {"WL001": 1, "WL009": 1}


# ---------------------------------------------------------------------------
# CLI exit codes and reports.


def write_fixture(tmp_path, relpath, body):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(body))
    return target


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_fixture(
            tmp_path, "src/repro/simnet/ok.py", "def f(x: int) -> int:\n    return x\n"
        )
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "relpath,body",
        [
            (
                "src/repro/simnet/wl001.py",
                """
                import time

                def f() -> float:
                    return time.time()
                """,
            ),
            (
                "src/repro/simnet/wl002.py",
                """
                import random

                def f() -> float:
                    return random.random()
                """,
            ),
            (
                "src/repro/metrics/wl003.py",
                """
                def f(rtt_a, rtt_b):
                    return rtt_a == rtt_b
                """,
            ),
            (
                "src/repro/quic/wl004.py",
                """
                class Pacer:
                    def __init__(self) -> None:
                        self.t = 0.0
                """,
            ),
            (
                "src/repro/metrics/wl005.py",
                """
                def merge(d: dict) -> list:
                    return [v for v in d.values()]
                """,
            ),
            (
                "src/repro/quic/wl006.py",
                """
                def f(x):
                    return x
                """,
            ),
            (
                "src/repro/cdn/wl007.py",
                """
                def f(x: int) -> int:
                    print(x)
                    return x
                """,
            ),
        ],
        ids=["WL001", "WL002", "WL003", "WL004", "WL005", "WL006", "WL007"],
    )
    def test_each_rule_fixture_fails_the_build(self, tmp_path, capsys, relpath, body):
        write_fixture(tmp_path, relpath, body)
        assert main([str(tmp_path)]) == EXIT_VIOLATIONS
        capsys.readouterr()

    def test_missing_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "no_such_dir"
        assert main([str(missing)]) == EXIT_ERROR
        assert str(missing) in capsys.readouterr().err

    def test_path_without_python_files_exits_two(self, tmp_path, capsys):
        readme = write_fixture(tmp_path, "README.md", "# not python\n")
        assert main([str(tmp_path / "src"), str(readme)]) == EXIT_ERROR
        assert main([str(readme)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert str(tmp_path / "src") in err and str(readme) in err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        write_fixture(tmp_path, "src/repro/simnet/broken.py", "def broken(:\n")
        assert main([str(tmp_path)]) == EXIT_ERROR
        capsys.readouterr()

    def test_json_report(self, tmp_path, capsys):
        write_fixture(
            tmp_path,
            "src/repro/simnet/bad.py",
            """
            import time

            def f() -> float:
                return time.time()
            """,
        )
        out_file = tmp_path / "report.json"
        code = main([str(tmp_path), "--format", "json", "--output", str(out_file)])
        capsys.readouterr()
        assert code == EXIT_VIOLATIONS
        report = json.loads(out_file.read_text())
        assert report["files_scanned"] == 1
        assert report["counts"] == {"WL001": 1}
        (entry,) = report["violations"]
        assert entry["code"] == "WL001"
        assert entry["rule"] == RULES["WL001"].name
        assert entry["file"].endswith("bad.py")
        assert entry["line"] == 5

    def test_select_limits_rules(self, tmp_path, capsys):
        write_fixture(
            tmp_path,
            "src/repro/simnet/bad.py",
            """
            import time

            def f() -> float:
                return time.time()
            """,
        )
        assert main([str(tmp_path), "--select", "WL002"]) == EXIT_CLEAN
        assert main([str(tmp_path), "--select", "WL001"]) == EXIT_VIOLATIONS
        capsys.readouterr()

    def test_unknown_select_exits_two(self, capsys):
        assert main(["--select", "WL099"]) == EXIT_ERROR
        capsys.readouterr()

    @pytest.mark.parametrize(
        "removed",
        [["--jobs", "2"], ["--cache-dir", "x"], ["--format", "sarif"], ["--update-baseline"]],
        ids=["jobs", "cache-dir", "sarif", "update-baseline"],
    )
    def test_removed_flags_are_usage_errors(self, capsys, removed):
        with pytest.raises(SystemExit) as exc:
            main(removed)
        assert exc.value.code == EXIT_ERROR
        assert "usage:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

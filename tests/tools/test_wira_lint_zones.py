"""Regression tests for anchored zone matching in the rule registry.

The original matcher used substring-in-path tests, so a zone like
``src/repro/core/schemes`` matched *any* path containing that substring
(``src/repro/core/schemes_extra.py``, ``attic/src/repro/core/schemes/…``
copies, even paths where the run straddles segment boundaries).  The
anchored matcher requires whole path segments; these tests pin the
near-miss behaviour so the bug cannot return.
"""

import re
from pathlib import Path

import pytest

from tools.wira_lint.rules import RULES, TYPED_ZONE, zone_match

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestZoneMatch:
    def test_exact_directory_match(self):
        assert zone_match("src/repro/simnet/engine.py", "src/repro/simnet")

    def test_module_file_matches_final_segment(self):
        # The final zone segment may name the module file itself.
        assert zone_match("src/repro/core/schemes.py", "src/repro/core/schemes")

    def test_near_miss_prefix_module_name_rejected(self):
        # The substring matcher accepted this: "src/repro/core/schemes"
        # is a substring of the path, but schemes_extra is a different
        # module and must not inherit schemes' typed-zone contract.
        assert not zone_match("src/repro/core/schemes_extra.py", "src/repro/core/schemes")

    def test_near_miss_segment_straddle_rejected(self):
        assert not zone_match("notsrc/repro/simnet/engine.py", "src/repro/simnet")

    def test_near_miss_suffix_segment_rejected(self):
        assert not zone_match("src/repro/simnet_backup/engine.py", "src/repro/simnet")

    def test_absolute_tmp_path_anchors_on_segment_run(self):
        # CLI fixture trees live under pytest tmp dirs; the zone must
        # match the mirrored layout anywhere in the path.
        assert zone_match("/tmp/pytest-123/t0/src/repro/simnet/fixture.py", "src/repro/simnet")

    def test_nested_file_under_zone_directory(self):
        assert zone_match("src/repro/quic/cc/bbr.py", "src/repro/quic")

    def test_glob_segment(self):
        assert zone_match("src/repro/media/frames.py", "src/repro/*")

    def test_zone_longer_than_path_rejected(self):
        assert not zone_match("simnet/engine.py", "src/repro/simnet")

    def test_directory_name_equal_to_zone_file_segment(self):
        # Zone naming a module also matches a package directory of the
        # same name (schemes/ split into a package keeps its contract).
        assert zone_match("src/repro/core/schemes/registry.py", "src/repro/core/schemes")


class TestRuleAppliesTo:
    def test_wl006_does_not_leak_to_sibling_module(self):
        rule = RULES["WL006"]
        assert rule.applies_to("src/repro/core/schemes.py")
        assert not rule.applies_to("src/repro/core/schemes_extra.py")
        assert not rule.applies_to("src/repro/cdn/session.py")

    def test_exempt_zone_wins(self):
        rule = RULES["WL007"]
        assert rule.applies_to("src/repro/cdn/session.py")
        assert not rule.applies_to("src/repro/experiments/table1.py")
        assert not rule.applies_to("src/repro/metrics/report.py")

    def test_windows_separators_normalised(self):
        rule = RULES["WL001"]
        assert rule.applies_to("src\\repro\\simnet\\engine.py")

    def test_settings_file_exempt_from_wl012(self):
        rule = RULES["WL012"]
        assert not rule.applies_to("src/repro/runtime/settings.py")
        assert rule.applies_to("src/repro/runtime/config.py")
        assert rule.applies_to("tools/wira_fleet/campaign.py")
        assert not rule.applies_to("benchmarks/bench_speed.py")


def _module(path: str) -> str:
    """``src/repro/quic`` -> ``repro.quic.*``; ``x/y.py`` -> ``x.y``."""
    path = path.rstrip("/").removesuffix(".py")
    dotted = path.removeprefix("src/").replace("/", ".")
    return dotted + ".*" if (REPO_ROOT / path).is_dir() else dotted


def test_typed_zone_is_the_mypy_contract():
    """WL006's zone, pyproject's ``disallow_untyped_defs`` overrides and
    CI's mypy command name the same modules."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    (strict,) = [
        override
        for override in pyproject["tool"]["mypy"]["overrides"]
        if override.get("disallow_untyped_defs")
    ]
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    (command,) = re.findall(r"^\s*run: mypy (.+)$", ci, re.MULTILINE)
    zone = {_module(path) for path in TYPED_ZONE}
    assert zone == set(strict["module"])
    assert zone == {_module(path) for path in command.split()}

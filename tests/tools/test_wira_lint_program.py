"""Rule tests beyond one snippet per rule: merge scope across defs,
settings knobs, the registry cross-check and pragma accounting.

Each rule family gets deliberately-broken fixtures (the acceptance bar
for the registry cross-check) plus clean variants, all under virtual
paths mirroring the repo layout so zone scoping applies exactly as in
CI.
"""

import textwrap

from tools.wira_lint import lint_source, lint_sources

SIM = "src/repro/simnet/fixture.py"
METRICS = "src/repro/metrics/helper.py"


def run(sources, select=None):
    return lint_sources(
        {path: textwrap.dedent(text) for path, text in sources.items()}, select
    )


def codes(violations):
    return [v.code for v in violations]


# ---------------------------------------------------------------------------
# WL005: the merge scope is lexical -- a merge-named def and the defs
# nested in it.  A helper the merge path calls is not followed.


class TestWL005OneCallLevel:
    def test_helper_called_from_merge_not_followed(self):
        violations = run(
            {
                METRICS: """
                    def dump(d):
                        return [v for v in d.values()]
                """,
                "src/repro/metrics/agg.py": """
                    from repro.metrics.helper import dump

                    def merge_shards(shards):
                        return [dump(s) for s in shards]
                """,
            },
            select={"WL005"},
        )
        assert violations == []

    def test_def_nested_in_merge_flagged(self):
        violations = run(
            {
                METRICS: """
                    def merge_shards(shards):
                        def dump(d):
                            return [v for v in d.values()]

                        return [dump(s) for s in shards]
                """
            },
            select={"WL005"},
        )
        assert codes(violations) == ["WL005"]
        assert "merge path iterates d.values()" in violations[0].message

    def test_helper_not_reached_from_merge_clean(self):
        violations = run(
            {
                METRICS: """
                    def dump(d):
                        return [v for v in d.values()]
                """,
                "src/repro/metrics/agg.py": """
                    from repro.metrics.helper import dump

                    def render(shards):
                        return [dump(s) for s in shards]
                """,
            },
            select={"WL005"},
        )
        assert violations == []

    def test_direct_merge_function_still_flagged(self):
        violations = run(
            {
                METRICS: """
                    def merge(d):
                        return [v for v in d.values()]
                """
            },
            select={"WL005"},
        )
        assert codes(violations) == ["WL005"]

    def test_sorted_iteration_clean_even_in_merge(self):
        violations = run(
            {
                METRICS: """
                    def merge(d):
                        return [d[k] for k in sorted(d.keys())]
                """
            },
            select={"WL005"},
        )
        assert violations == []


# ---------------------------------------------------------------------------
# WL012: WIRA_* knobs must flow through runtime.Settings.


class TestWL012SettingsKnobs:
    def test_subscript_read_flagged(self):
        src = """
            import os

            def seed():
                return os.environ["WIRA_SEED"]
        """
        assert "WL012" in [v.code for v in lint_source(textwrap.dedent(src), METRICS)]

    def test_getenv_and_environ_get_flagged(self):
        src = """
            import os

            def knobs():
                return os.getenv("WIRA_TRACE"), os.environ.get("WIRA_JOBS")
        """
        found = [v.code for v in lint_source(textwrap.dedent(src), METRICS)]
        assert found.count("WL012") == 2

    def test_non_wira_key_clean(self):
        src = """
            import os

            def home():
                return os.environ["HOME"]
        """
        assert "WL012" not in [v.code for v in lint_source(textwrap.dedent(src), METRICS)]

    def test_settings_module_exempt(self):
        src = """
            import os

            def load():
                return os.environ.get("WIRA_SEED")
        """
        path = "src/repro/runtime/settings.py"
        assert "WL012" not in [v.code for v in lint_source(textwrap.dedent(src), path)]


# ---------------------------------------------------------------------------
# WL013: obs event names <-> EVENT_NAMES, both directions.


EVENTS_FIXTURE = "src/repro/obs/events_fixture.py"
BUS_FIXTURE = "src/repro/obs/bus_fixture.py"


class TestWL013EventRegistry:
    def test_unregistered_emit_and_unreferenced_registration(self):
        violations = run(
            {
                EVENTS_FIXTURE: """
                    EVENT_NAMES = frozenset({"conn:open", "conn:close"})
                """,
                BUS_FIXTURE: """
                    def drive(bus):
                        bus.emit(0.0, "conn:open", "c", {})
                        bus.emit(0.0, "conn:missing", "c", {})
                """,
            },
            select={"WL013"},
        )
        assert codes(violations) == ["WL013", "WL013"]
        by_path = {v.path: v for v in violations}
        assert "'conn:missing' is not registered" in by_path[BUS_FIXTURE].message
        assert "'conn:close'" in by_path[EVENTS_FIXTURE].message

    def test_literal_evidence_covers_dynamic_emit(self):
        # fault:link_up / fault:link_down pattern: the name is selected
        # into a variable before the emit call.
        violations = run(
            {
                EVENTS_FIXTURE: """
                    EVENT_NAMES = frozenset({"conn:open", "conn:close"})
                """,
                BUS_FIXTURE: """
                    def drive(bus, closing):
                        name = "conn:close" if closing else "conn:open"
                        bus.emit(0.0, name, "c", {})
                        bus.emit(0.0, "conn:open", "c", {})
                """,
            },
            select={"WL013"},
        )
        assert violations == []

    def test_evidence_outside_the_zone_does_not_count(self):
        # A name that only a test emits or mentions is registered but
        # never emitted by the code the registry describes.
        violations = run(
            {
                EVENTS_FIXTURE: """
                    EVENT_NAMES = frozenset({"conn:open", "conn:close"})
                """,
                BUS_FIXTURE: """
                    def drive(bus):
                        bus.emit(0.0, "conn:open", "c", {})
                """,
                "tests/obs/test_fixture.py": """
                    def test_close(bus):
                        bus.emit(0.0, "conn:close", "c", {})
                        assert bus.counts["conn:close"] == 1
                """,
            },
            select={"WL013"},
        )
        assert codes(violations) == ["WL013"]
        assert violations[0].path == EVENTS_FIXTURE
        assert "'conn:close'" in violations[0].message

    def test_registry_alone_raises_nothing(self):
        # Without any emit site in scope the reverse check stays quiet
        # (single-file runs on the registry module must not spray).
        violations = run(
            {
                EVENTS_FIXTURE: """
                    EVENT_NAMES = frozenset({"conn:open"})
                """
            },
            select={"WL013"},
        )
        assert violations == []


# ---------------------------------------------------------------------------
# WL009: unused pragmas.


class TestWL009UnusedPragma:
    def test_unused_pragma_flagged_in_src(self):
        src = """
            def f() -> int:
                return 1  # wira-lint: disable=WL003
        """
        violations = lint_source(textwrap.dedent(src), METRICS)
        assert [v.code for v in violations] == ["WL009"]
        assert "suppresses no finding" in violations[0].message

    def test_used_pragma_clean(self):
        src = """
            import time

            def stamp():
                return time.time()  # wira-lint: disable=WL001
        """
        violations = lint_source(textwrap.dedent(src), SIM)
        assert "WL009" not in [v.code for v in violations]

    def test_wrong_zone_pragma_flagged(self):
        # WL001 cannot fire outside the replay zone, so disabling it in
        # metrics is always dead weight.
        src = """
            import time

            def stamp():
                return time.time()  # wira-lint: disable=WL001
        """
        violations = lint_source(textwrap.dedent(src), METRICS)
        assert [v.code for v in violations] == ["WL009"]
        assert "cannot fire in this file" in violations[0].message

    def test_unknown_code_flagged(self):
        src = """
            x = 1  # wira-lint: disable=WL999
        """
        violations = lint_source(textwrap.dedent(src), METRICS)
        assert [v.code for v in violations] == ["WL009"]
        assert "unknown rule code" in violations[0].message

    def test_tests_zone_not_policed(self):
        src = """
            x = 1  # wira-lint: disable=WL003
        """
        assert lint_source(textwrap.dedent(src), "tests/simnet/fixture.py") == []

    def test_wl009_self_opt_out(self):
        src = """
            x = 1  # wira-lint: disable=WL003,WL009
        """
        assert lint_source(textwrap.dedent(src), METRICS) == []

    def test_select_without_rule_skips_judgement(self):
        # When WL003 is not part of the run we cannot tell whether its
        # pragma is dead, so WL009 stays quiet about it.
        src = """
            x = 1  # wira-lint: disable=WL003
        """
        assert lint_source(textwrap.dedent(src), METRICS, select={"WL009"}) == []

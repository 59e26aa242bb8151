"""Whole-program rule tests: multi-file fixtures through ``lint_sources``.

Each rule family gets deliberately-broken fixtures (the acceptance bar
for the registry cross-checks) plus clean variants, all under virtual
paths mirroring the repo layout so zone scoping applies exactly as in
CI.
"""

import textwrap

from tools.wira_lint import lint_source, lint_sources

SIM = "src/repro/simnet/fixture.py"
MEDIA = "src/repro/media/fixture.py"
METRICS = "src/repro/metrics/helper.py"


def run(sources, select=None):
    return lint_sources(
        {path: textwrap.dedent(text) for path, text in sources.items()}, select
    )


def codes(violations):
    return [v.code for v in violations]


# ---------------------------------------------------------------------------
# WL010: interprocedural wall-clock taint.


class TestWL010WallClockTaint:
    def test_laundered_read_flagged_with_witness(self):
        violations = run(
            {
                METRICS: """
                    import time

                    def stamp():
                        return time.time()
                """,
                SIM: """
                    from repro.metrics.helper import stamp

                    def schedule():
                        return stamp()
                """,
            },
            select={"WL010"},
        )
        assert codes(violations) == ["WL010"]
        finding = violations[0]
        assert finding.path == SIM
        assert "transitively reads the wall clock" in finding.message
        # The witness names the full call chain down to the read site.
        assert "schedule -> repro.metrics.helper.stamp" in finding.message
        assert f"time.time() [{METRICS}:" in finding.message

    def test_direct_read_outside_sim_zone_flagged(self):
        # media is in the replay zone but not the WL001 sim zone: the
        # taint rule carries the direct finding there.
        violations = run(
            {
                MEDIA: """
                    import time

                    def frame_stamp():
                        return time.time()
                """
            },
            select={"WL010"},
        )
        assert codes(violations) == ["WL010"]
        assert "reads the wall clock: time.time()" in violations[0].message

    def test_direct_sim_read_is_wl001_not_wl010(self):
        violations = run(
            {
                SIM: """
                    import time

                    def stamp():
                        return time.time()
                """
            }
        )
        assert "WL001" in codes(violations)
        assert "WL010" not in codes(violations)

    def test_no_cascade_past_replay_zone_carrier(self):
        # Only the replay-zone function nearest the source reports; its
        # callers inside the zone stay quiet.
        violations = run(
            {
                METRICS: """
                    import time

                    def stamp():
                        return time.time()
                """,
                SIM: """
                    from repro.metrics.helper import stamp

                    def inner():
                        return stamp()

                    def outer():
                        return inner()
                """,
            },
            select={"WL010"},
        )
        assert len(violations) == 1
        assert "inner" in violations[0].message

    def test_pragma_vetted_read_does_not_taint(self):
        violations = run(
            {
                METRICS: """
                    import time

                    def stamp():
                        return time.time()  # wira-lint: disable=WL010
                """,
                SIM: """
                    from repro.metrics.helper import stamp

                    def schedule():
                        return stamp()
                """,
            },
            select={"WL010"},
        )
        assert violations == []

    def test_clean_chain(self):
        violations = run(
            {
                METRICS: """
                    def stamp(loop):
                        return loop.now
                """,
                SIM: """
                    from repro.metrics.helper import stamp

                    def schedule(loop):
                        return stamp(loop)
                """,
            },
            select={"WL010"},
        )
        assert violations == []


# ---------------------------------------------------------------------------
# WL011: interprocedural global-RNG taint.


class TestWL011GlobalRngTaint:
    def test_laundered_global_rng_flagged(self):
        violations = run(
            {
                METRICS: """
                    import random

                    def jitter():
                        return random.random()
                """,
                SIM: """
                    from repro.metrics.helper import jitter

                    def arrivals():
                        return jitter()
                """,
            },
            select={"WL011"},
        )
        assert codes(violations) == ["WL011"]
        assert "transitively reads the process-global RNG" in violations[0].message
        assert "random.random()" in violations[0].message

    def test_hard_seeded_instance_does_not_taint(self):
        # random.Random(0) is deterministic (WL002 style debt, not a
        # taint source); callers must not be poisoned by it.
        violations = run(
            {
                METRICS: """
                    import random

                    def rng():
                        return random.Random(7)
                """,
                SIM: """
                    from repro.metrics.helper import rng

                    def arrivals():
                        return rng()
                """,
            },
            select={"WL011"},
        )
        assert violations == []

    def test_unseeded_instance_taints(self):
        violations = run(
            {
                METRICS: """
                    import random

                    def rng():
                        return random.Random()
                """,
                SIM: """
                    from repro.metrics.helper import rng

                    def arrivals():
                        return rng()
                """,
            },
            select={"WL011"},
        )
        assert codes(violations) == ["WL011"]


# ---------------------------------------------------------------------------
# WL005: dict iteration feeding merge paths, one call level deep.


class TestWL005OneCallLevel:
    def test_helper_called_from_merge_flagged(self):
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
        assert codes(violations) == ["WL005"]
        assert violations[0].path == METRICS
        assert "feeds merge path repro.metrics.agg.merge_shards" in violations[0].message

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
                return os.getenv("WIRA_TRACE"), os.environ.get("WIRA_SANITIZE")
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
# WL014: sanitizer invariants <-> INVARIANTS, both directions.


ERRORS_FIXTURE = "src/repro/sanitize/errors_fixture.py"
CHECKS_FIXTURE = "src/repro/sanitize/checks_fixture.py"


class TestWL014InvariantRegistry:
    def test_unregistered_raise_and_unraised_registration(self):
        violations = run(
            {
                ERRORS_FIXTURE: """
                    INVARIANTS = ("clock_ok", "cwnd_ok")

                    class SanitizerError(AssertionError):
                        pass
                """,
                CHECKS_FIXTURE: """
                    from repro.sanitize.errors_fixture import SanitizerError

                    def check(v):
                        if v:
                            raise SanitizerError("clock_ok", "detail")
                        raise SanitizerError("bogus_name", "detail")
                """,
            },
            select={"WL014"},
        )
        assert codes(violations) == ["WL014", "WL014"]
        by_path = {v.path: v for v in violations}
        assert "'bogus_name'" in by_path[CHECKS_FIXTURE].message
        assert "'cwnd_ok'" in by_path[ERRORS_FIXTURE].message

    def test_consistent_fixture_clean(self):
        violations = run(
            {
                ERRORS_FIXTURE: """
                    INVARIANTS = ("clock_ok",)

                    class SanitizerError(AssertionError):
                        pass
                """,
                CHECKS_FIXTURE: """
                    from repro.sanitize.errors_fixture import SanitizerError

                    def check(v):
                        if v:
                            raise SanitizerError("clock_ok", "detail")
                """,
            },
            select={"WL014"},
        )
        assert violations == []


# ---------------------------------------------------------------------------
# WL015: EventLoop duck-type conformance.


LOOP_FIXTURE = "src/repro/simnet/loop_fixture.py"
SESS_FIXTURE = "src/repro/cdn/sess_fixture.py"
DRIVE_FIXTURE = "src/repro/cdn/drive_fixture.py"

LOOP_SRC = """
    class EventLoop:
        __slots__ = ("_now",)

        def now(self):
            return self._now

        def post_at(self, when, fn):
            pass

        def post_later(self, delay, fn):
            pass

        def pending_events(self):
            return 0
"""

SESS_SRC = """
    from repro.simnet.loop_fixture import EventLoop

    class Sess:
        def run(self, loop: EventLoop) -> None:
            pass
"""


class TestWL015DuckType:
    def test_incomplete_class_into_annotated_param(self):
        violations = run(
            {
                LOOP_FIXTURE: LOOP_SRC,
                SESS_FIXTURE: SESS_SRC,
                DRIVE_FIXTURE: """
                    from repro.cdn.sess_fixture import Sess

                    class FakeLoop:
                        def now(self):
                            return 0.0

                    def drive():
                        fake = FakeLoop()
                        Sess().run(fake)
                """,
            },
            select={"WL015"},
        )
        assert codes(violations) == ["WL015"]
        message = violations[0].message
        assert "FakeLoop" in message
        assert "post_at" in message and "pending_events" in message
        # The provided member must not be listed as missing.
        missing = message.split("lacks: ")[1].split(";")[0]
        assert "now" not in missing.split(", ")

    def test_cast_site_checked(self):
        violations = run(
            {
                LOOP_FIXTURE: LOOP_SRC,
                DRIVE_FIXTURE: """
                    from typing import cast

                    from repro.simnet.loop_fixture import EventLoop

                    class Member:
                        def now(self):
                            return 0.0

                        def post_at(self, when, fn):
                            pass

                    def adopt():
                        m = Member()
                        return cast(EventLoop, m)
                """,
            },
            select={"WL015"},
        )
        assert codes(violations) == ["WL015"]
        assert "post_later" in violations[0].message
        assert "pending_events" in violations[0].message

    def test_subclass_inherits_surface(self):
        violations = run(
            {
                LOOP_FIXTURE: LOOP_SRC,
                SESS_FIXTURE: SESS_SRC,
                DRIVE_FIXTURE: """
                    from repro.cdn.sess_fixture import Sess
                    from repro.simnet.loop_fixture import EventLoop

                    class SubLoop(EventLoop):
                        pass

                    def drive():
                        Sess().run(SubLoop())
                """,
            },
            select={"WL015"},
        )
        assert violations == []

    def test_conforming_duck_type_clean(self):
        violations = run(
            {
                LOOP_FIXTURE: LOOP_SRC,
                SESS_FIXTURE: SESS_SRC,
                DRIVE_FIXTURE: """
                    from repro.cdn.sess_fixture import Sess

                    class MemberLoop:
                        def now(self):
                            return 0.0

                        def post_at(self, when, fn):
                            pass

                        def post_later(self, delay, fn):
                            pass

                        def pending_events(self):
                            return 0

                    def drive():
                        Sess().run(MemberLoop())
                """,
            },
            select={"WL015"},
        )
        assert violations == []

    def test_keyword_argument_checked(self):
        violations = run(
            {
                LOOP_FIXTURE: LOOP_SRC,
                SESS_FIXTURE: SESS_SRC,
                DRIVE_FIXTURE: """
                    from repro.cdn.sess_fixture import Sess

                    class FakeLoop:
                        def now(self):
                            return 0.0

                    def drive():
                        Sess().run(loop=FakeLoop())
                """,
            },
            select={"WL015"},
        )
        assert codes(violations) == ["WL015"]


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
        # WL001 cannot fire outside the sim zone, so disabling it in
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

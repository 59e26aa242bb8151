"""Each lint rule's defect, planted in the real tree: who catches it.

A plant (``tests/plants.py``) is a small edit to real files under
``src/``; here each introduces the defect one rule exists for.  The
edits are applied in memory only; ``test_lint_verdict`` lints the
edited files next to their unedited originals and checks that the
plant's rule reports the difference (or, for the four laundered plants,
that no rule does).  The runtime tests
below plant the same laundered reads with a deterministic stub in place
of the host clock or the process RNG and show which determinism gate
fails.  CONTRIBUTING.md's "Plant table" records, per plant, the gates
that fail when the edit is written into a copy of the tree.
"""

from __future__ import annotations

import random
from typing import Dict

import pytest

from repro.media.source import LiveSource
from repro.quic.loss_recovery import LossRecovery
from tests.experiments import test_scheme_parity
from tests.plants import REPO_ROOT, Plant, planted_sources
from tests.quic import test_loss_recovery
from tools.wira_lint import lint_sources

SOURCE = "src/repro/media/source.py"
STATS = "src/repro/metrics/stats.py"
RECOVERY = "src/repro/quic/loss_recovery.py"

#: A helper outside every lint zone that reads the host clock.
CLOCK_HELPER = (
    "from typing import List, Optional, Sequence\n",
    "from typing import List, Optional, Sequence\n"
    "import time\n\n\n"
    "def wall_jitter() -> float:\n"
    "    return 1.0 + time.perf_counter_ns() % 1000 * 1e-4\n",
)
#: The same helper drawing from the process-global RNG.
RNG_HELPER = (
    "from typing import List, Optional, Sequence\n",
    "from typing import List, Optional, Sequence\n"
    "import random\n\n\n"
    "def wall_jitter() -> float:\n"
    "    return 1.0 + random.random() * 0.1\n",
)
#: ``LiveSource._jitter`` scaled by the helper: every frame size below
#: ``run_deployment`` reads it.
JITTER_CALLS_HELPER = (
    "        return per_gop[frame_index]\n",
    "        from repro.metrics.stats import wall_jitter\n\n"
    "        return per_gop[frame_index] * wall_jitter()\n",
)
#: ``LossRecovery._garbage_collect`` consults the helper: the sweep runs
#: only past 8 192 outstanding packets, which no replay or smoke run
#: reaches, so this line runs in its unit tests alone.
GC_CALLS_HELPER = (
    "        cut = bisect_left(self._unacked, horizon)\n",
    "        from repro.metrics.stats import wall_jitter\n\n"
    "        cut = bisect_left(self._unacked, horizon) if wall_jitter() < 1.05 else 0\n",
)

#: ``(rule, plant)``: the code that must report the plant, or ``None``
#: when no rule does.
PLANTS = (
    (
        "WL001",
        Plant(
            "WL001-clock-in-jitter",
            (
                (SOURCE, "import math\n", "import math\nimport time\n"),
                (
                    SOURCE,
                    "        return per_gop[frame_index]\n",
                    "        return per_gop[frame_index] * (1.0 + time.perf_counter_ns() % 1000 * 1e-4)\n",
                ),
            ),
        ),
    ),
    (
        "WL002",
        Plant(
            "WL002-global-rng-in-link-loss",
            (
                (
                    "src/repro/simnet/link.py",
                    "self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:",
                    "self.loss_rate > 0.0 and random.random() < self.loss_rate:",
                ),
            ),
        ),
    ),
    (
        "WL003",
        Plant(
            "WL003-exact-loss-deadline",
            (
                (
                    "src/repro/quic/loss_recovery.py",
                    "by_time = lost_deadline <= now",
                    "by_time = lost_deadline == now",
                ),
            ),
        ),
    ),
    (
        "WL004",
        Plant(
            "WL004-datagram-without-slots",
            (
                (
                    "src/repro/simnet/link.py",
                    '    __slots__ = ("_payload", "size", "corrupted", "packet")\n',
                    "",
                ),
            ),
        ),
    ),
    (
        "WL005",
        Plant(
            "WL005-merge-in-insertion-order",
            (
                (
                    "src/repro/fleet/aggregate.py",
                    "        for value in sorted(other.schemes):\n"
                    "            self.schemes[value].merge(other.schemes[value])\n",
                    "        for value, agg in other.schemes.items():\n"
                    "            self.schemes[value].merge(agg)\n",
                ),
            ),
        ),
    ),
    (
        "WL006",
        Plant(
            "WL006-untyped-pacer-refill",
            (
                (
                    "src/repro/quic/pacer.py",
                    "def _refill(self, now: float) -> None:",
                    "def _refill(self, now):",
                ),
            ),
        ),
    ),
    (
        "WL007",
        Plant(
            "WL007-print-per-session",
            (
                (
                    "src/repro/cdn/session.py",
                    "    def run(self) -> SessionResult:\n",
                    "    def run(self) -> SessionResult:\n"
                    "        print(f\"session {self.trace_label}\")\n",
                ),
            ),
        ),
    ),
    (
        "WL009",
        Plant(
            "WL009-stale-pragma",
            ((STATS, "import math\n", "import math  # wira-lint: disable=WL003\n"),),
        ),
    ),
    (
        None,
        Plant(
            "WL010-laundered-clock-in-jitter",
            ((STATS,) + CLOCK_HELPER, (SOURCE,) + JITTER_CALLS_HELPER),
        ),
    ),
    (
        None,
        Plant(
            "WL010-laundered-clock-in-gc",
            ((STATS,) + CLOCK_HELPER, (RECOVERY,) + GC_CALLS_HELPER),
        ),
    ),
    (
        None,
        Plant(
            "WL011-laundered-rng-in-jitter",
            ((STATS,) + RNG_HELPER, (SOURCE,) + JITTER_CALLS_HELPER),
        ),
    ),
    (
        None,
        Plant(
            "WL011-laundered-rng-in-gc",
            ((STATS,) + RNG_HELPER, (RECOVERY,) + GC_CALLS_HELPER),
        ),
    ),
    (
        "WL012",
        Plant(
            "WL012-jobs-from-environ",
            (
                ("src/repro/runtime/pool.py", "import logging\n", "import logging\nimport os\n"),
                (
                    "src/repro/runtime/pool.py",
                    "        return settings.current().jobs\n",
                    '        return int(os.environ.get("WIRA_JOBS", "1"))\n',
                ),
            ),
        ),
    ),
    (
        "WL013",
        Plant(
            "WL013-misspelt-event",
            (
                (
                    "src/repro/quic/connection.py",
                    '"recovery:loss_timer_fired",',
                    '"recovery:loss_timer_fire",',
                ),
            ),
            context=("src/repro/obs/events.py",),
        ),
    ),
)


def _findings(sources: Dict[str, str]):
    return {(v.path, v.code, v.message) for v in lint_sources(sources)}


@pytest.mark.parametrize("rule, plant", PLANTS, ids=[plant.name for _, plant in PLANTS])
def test_lint_verdict(rule, plant):
    planted = planted_sources(plant)
    originals = {
        path: (REPO_ROOT / path).read_text(encoding="utf-8")
        for path in tuple(planted) + plant.context
    }
    new = _findings({**originals, **planted}) - _findings(originals)
    if rule is None:
        assert new == set()
    else:
        assert {code for _, code, _ in new} == {rule}
        assert {path for path, _, _ in new} & set(planted)


# ---------------------------------------------------------------------------
# The laundered reads at runtime.  A stub stands in for the host clock or
# the process RNG so that the plant's effect is the same on every run.


class StubClock:
    """``perf_counter_ns`` that moves on by a prime number of ns per read."""

    def __init__(self) -> None:
        self.ns = 10**9

    def perf_counter_ns(self) -> int:
        self.ns += 1_000_003
        return self.ns


@pytest.fixture
def golden(monkeypatch):
    """The golden gate, run as its own test runs it: untraced."""
    from repro import obs

    monkeypatch.delenv("WIRA_TRACE", raising=False)
    monkeypatch.setattr(obs, "ACTIVE", None)
    return test_scheme_parity.TestGoldenParity()


def plant_in_jitter(monkeypatch, wall_jitter) -> None:
    original = LiveSource._jitter
    monkeypatch.setattr(
        LiveSource,
        "_jitter",
        lambda self, gop, frame: original(self, gop, frame) * wall_jitter(),
    )


def test_laundered_clock_read_fails_the_figure_golden(monkeypatch, golden):
    clock = StubClock()
    plant_in_jitter(monkeypatch, lambda: 1.0 + clock.perf_counter_ns() % 1000 * 1e-4)
    with pytest.raises(AssertionError):
        golden.test_figure_replay_digest()


def test_laundered_rng_read_fails_the_fleet_golden(monkeypatch, golden):
    process_rng = random.Random(2024)
    plant_in_jitter(monkeypatch, lambda: 1.0 + process_rng.random() * 0.1)
    with pytest.raises(AssertionError):
        golden.test_fleet_chunk_digest()


def plant_in_gc(monkeypatch, wall_jitter) -> None:
    """The GC plants' effect: a reading of 1.05 or above skips the trim
    of ``_unacked``, so a forgotten packet's number stays in it."""
    original = LossRecovery._garbage_collect

    def planted(self, largest_acked):
        unacked = list(self._unacked)
        original(self, largest_acked)
        if wall_jitter() >= 1.05:
            self._unacked[:] = unacked

    monkeypatch.setattr(LossRecovery, "_garbage_collect", planted)


def test_laundered_read_in_gc_never_runs_in_a_replay(monkeypatch, golden):
    """No replay sweeps its sent packets, so the GC plants' read never
    executes under the goldens."""
    sweeps = []
    original = LossRecovery._garbage_collect
    monkeypatch.setattr(
        LossRecovery,
        "_garbage_collect",
        lambda self, largest_acked: sweeps.append(largest_acked) or original(self, largest_acked),
    )
    golden.test_figure_replay_digest()
    golden.test_fleet_chunk_digest()
    assert sweeps == []


@pytest.mark.parametrize("reading, caught", [(0, False), (500, True)], ids=["quiet", "flips"])
def test_laundered_read_in_gc_is_caught_only_when_it_skips_the_trim(monkeypatch, reading, caught):
    """The recovery unit test does run the line; it fails only when the
    reading lands on the side that skips the trim (about half of host
    clock readings), so it catches the plant by chance."""
    plant_in_gc(monkeypatch, lambda: 1.0 + reading * 1e-4)
    if caught:
        with pytest.raises(AssertionError):
            test_loss_recovery.test_garbage_collection_forgets_unacked_numbers_too()
    else:
        test_loss_recovery.test_garbage_collection_forgets_unacked_numbers_too()

"""Every runtime plant still replays on this tree, and the plain tests
meant to catch four of them fail under them.

Rows 4, 15 and 16 of CONTRIBUTING.md's runtime plant table and the
baseline mutant M3 are each caught by a plain tier-1 test stating what
is right; each such test is run here with its plant swapped into the
process (``apply_in_process``) and must fail.
"""

import pytest

from tests.cdn import test_server_client
from tests.plants import PLANTS, apply_in_process, planted_sources
from tests.quic import test_bbr, test_connection

#: Plant name -> the plain test that catches it.
CAUGHT_BY = {
    "bbr-startup-exits-straight-to-probe-bw": test_bbr.test_pinned_session_walks_startup_drain_probe_bw,
    "table-one-applied-before-every-batch": (
        test_server_client.TestServerInit().test_applied_parameters_are_not_reapplied_on_a_later_batch
    ),
    "bbr-drain-at-unit-gain": test_bbr.test_drain_uses_inverse_gain,
    "pump-ignores-pacing-waits-under-a-second": (
        test_connection.TestWiraHooks().test_initial_pacing_shapes_first_flight
    ),
}


@pytest.mark.parametrize("plant", PLANTS, ids=[p.name for p in PLANTS])
def test_plant_applies_to_the_tree(plant):
    """Every row of the table can still be replayed on this tree."""
    for path, text in planted_sources(plant).items():
        compile(text, path, "exec")


@pytest.mark.parametrize("name", sorted(CAUGHT_BY))
def test_plant_fails_the_test_that_catches_it(monkeypatch, name):
    check = CAUGHT_BY[name]
    check()  # passes on this tree
    apply_in_process(monkeypatch, next(p for p in PLANTS if p.name == name))
    with pytest.raises(AssertionError):
        check()

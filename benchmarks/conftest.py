"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures and prints
its rows (run with ``-s`` to see them inline; without it the tables
appear in captured output on failure).  The heavyweight deployment
replay behind Figs 11–15 runs once and is shared through the experiment
cache, so ordering within a session does not matter.
"""

import pytest


@pytest.fixture
def print_phase_table():
    """Print the headline replay's FFCT phase breakdown and timeline.

    The records come from the shared experiment cache, so this never
    triggers a second replay.
    """

    def _print(figure_title):
        from repro.experiments.common import EVAL_SCHEMES, HEADLINE_CONFIG
        from repro.experiments.runner import run_deployment
        from repro.obs.timeline import deployment_phase_table

        table, timeline = deployment_phase_table(
            run_deployment(HEADLINE_CONFIG, EVAL_SCHEMES),
            title=f"{figure_title} — FFCT phase breakdown (mean per session)",
        )
        table.print()
        print(timeline)

    return _print

"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures and prints
its rows (run with ``-s`` to see them inline; without it the tables
appear in captured output on failure).  The heavyweight deployment
replay behind Figs 11–15 runs once and is shared through the experiment
cache, so ordering within a session does not matter.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (results are what matter;
    these are end-to-end experiment regenerations, not microbenchmarks)."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture
def print_phase_table():
    """Print the headline replay's FFCT phase breakdown, if traced.

    Phase breakdowns exist only when the replay ran under an active
    trace bus (``WIRA_TRACE=1``); otherwise this prints a one-line hint.
    The records come from the shared experiment cache, so this never
    triggers a second replay.
    """

    def _print(figure_title):
        from repro.experiments.common import EVAL_SCHEMES, HEADLINE_CONFIG
        from repro.experiments.runner import run_deployment
        from repro.obs.timeline import deployment_phase_table, mean_breakdown, render_timeline

        records = run_deployment(HEADLINE_CONFIG, EVAL_SCHEMES)
        table = deployment_phase_table(
            records, title=f"{figure_title} — FFCT phase breakdown (mean per session)"
        )
        if table is None:
            print(f"{figure_title}: no phase breakdowns (run with WIRA_TRACE=1 to get them)")
            return
        table.print()
        by_scheme = {
            scheme.display_name: mean_breakdown(
                o.result.phase_breakdown for o in outcomes
            )
            for scheme, outcomes in records.items()
        }
        print(render_timeline(by_scheme))

    return _print

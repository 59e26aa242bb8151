"""§VI preamble — choosing the baseline via A/B test.

The paper justifies its experiential baseline over Google's
``init_cwnd = 10`` recommendation: the static window yields an average
(p90) FFCT of 201.0 ms (476.5 ms), versus 158.9 ms (409.6 ms) for the
experiential configuration — so the *stronger* policy is used as the
comparison baseline throughout.
"""

from __future__ import annotations

from repro.core.schemes import BASELINE, STATIC_10
from repro.experiments.common import HEADLINE_CONFIG, PairedTable, paired_series
from repro.experiments.runner import run_deployment


def run(config=None) -> PairedTable:
    """FFCT of ``STATIC_10`` and ``BASELINE``, in group ``None``."""
    records = run_deployment(
        config or HEADLINE_CONFIG, schemes=(STATIC_10, BASELINE)
    )
    return paired_series(records, lambda o: o.result.ffct)

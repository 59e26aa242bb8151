#!/usr/bin/env python3
"""Miniature CDN deployment: the Fig 11 evaluation at example scale.

Replays a small deployment — OD pairs with session chains, QoS drift,
cookie persistence, 0-RTT/1-RTT mix — under every Table I scheme and
prints the paper-style FFCT summary.  The full-size version of this
experiment is ``benchmarks/test_bench_fig11.py``.

Usage::

    python examples/live_cdn_deployment.py [n_od_pairs]
"""

import sys

from repro.core.schemes import BASELINE, WIRA, WIRA_FF, WIRA_HX
from repro.experiments import fig11, fig14
from repro.experiments.common import EVAL_SCHEMES, gain
from repro.experiments.runner import run_deployment
from repro.metrics.report import Table, format_ms, format_pct
from repro.workload.population import DeploymentConfig


def main() -> None:
    n_od_pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    print(f"Replaying a {n_od_pairs}-OD-pair deployment under "
          f"{len(EVAL_SCHEMES)} schemes (a minute or so)...")

    config = DeploymentConfig(n_od_pairs=n_od_pairs, seed=7)
    records = run_deployment(config, EVAL_SCHEMES, use_cache=False)

    table = Table(
        "FFCT by scheme (paper Fig 11: Wira -10.6% avg, -16.7% p90)",
        ["scheme", "sessions", "avg FFCT", "gain", "p90 FFCT", "p90 gain", "avg FFLR"],
    )
    ffct, fflr = fig11.summarize(records), fig14.summarize(records)
    for scheme in (BASELINE, WIRA_FF, WIRA_HX, WIRA):
        s = ffct[None, scheme]
        table.add_row(
            scheme.display_name,
            len(s),
            format_ms(s.avg),
            format_pct(gain(ffct, scheme), signed=True),
            format_ms(s.p(90)),
            format_pct(gain(ffct, scheme, 90), signed=True),
            format_pct(fflr[None, scheme].avg),
        )
    table.print()

    wira = records[WIRA]
    with_cookie = sum(1 for o in wira if o.result.used_cookie)
    provisional = sum(
        1 for o in wira if o.result.initial_params and o.result.initial_params.provisional
    )
    print(f"\nWira sessions using a valid transport cookie: "
          f"{with_cookie}/{len(wira)} ({with_cookie / len(wira):.0%})")
    print(f"Sessions that fell back to corner cases: {len(wira) - with_cookie}"
          f" (no/stale cookie), {provisional} provisional (late FF_Size)")


if __name__ == "__main__":
    main()

"""The measuring subprocess: one workload, one timed region, one JSON line.

``python -m bench.child WORKLOAD --seed N --seconds S --spawned-at T``
sets the workload up, times one call into the leg's entry point and
prints the four end-to-end metrics with the outcome of the output
checks.  One process per timed region is what makes ``peak_rss_mb``
mean something: ``ru_maxrss`` only ever grows.

``--trace`` hands over to :mod:`bench.trace` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Callable, Dict, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


def timed(fn: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``fn``; return its result, wall seconds and CPU seconds.

    CPU is user + system of this process *and its reaped children*: the
    fleet campaign's workers are joined before ``run_campaign`` returns,
    so their time lands in the ``children_*`` fields by then.
    """
    cpu_before = sum(os.times()[:4])
    wall_before = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - wall_before
    cpu = sum(os.times()[:4]) - cpu_before
    return result, wall, cpu


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sim-seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--spawned-at", type=float, required=True, help="parent's time.time() at spawn"
    )
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    from bench import require_repro

    require_repro()
    if args.trace:
        from bench.trace import run_traced

        result = run_traced(args)
    else:
        result = run_measured(args)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


def run_measured(args: argparse.Namespace) -> Dict[str, object]:
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.sim_seed)
    try:
        workload.import_program()
        workload.prepare()
        workload.warmup()
        # Spawn → here: interpreter start, imports, inputs, warm-up.
        setup_s = time.time() - args.spawned_at
        raw, wall_s, cpu_s = timed(workload.run)
        rss_mb = peak_rss_mb()
        outcome = workload.outcome(raw)
        return {
            "workload": args.workload,
            "seed": args.seed,
            "sim_seed": workload.sim_seed,
            "ops": outcome.ops,
            "failed": outcome.failed,
            "problems": outcome.problems,
            "outcome_digest": outcome.digest,
            "metrics": {
                "sessions_per_s": outcome.ops / wall_s,
                "cpu_ms_per_session": 1e3 * cpu_s / outcome.ops,
                "peak_rss_mb": rss_mb,
                "setup_s": setup_s,
            },
            "sim": outcome.sim,
            "inputs": workload.describe(),
        }
    finally:
        workload.close()


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m bench``: one, run, trace, compare.

``one``      one run of one workload, one JSON line — the form the
             benchmark contract (``BENCHMARK.json``) invokes;
``run``      every workload, several runs each, every end-to-end metric
             by name with its unit, output checks, non-zero exit on any
             failure;
``trace``    the traced quarter-size slice of every workload, printed;
``compare``  two ``run --json`` files side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from bench import compare, measure
from bench.workloads import WORKLOADS

#: Seconds of timed region the input sizes of a run aim at;
#: ``BENCHMARK.json``'s ``run_seconds``.  The host this was sized on runs
#: the same work in 17 s on a quiet day and 26 s on a busy one; with set-up
#: and checks a run then takes up to 30 s, which keeps the contract's 92
#: runs inside its 57-minute cap with a fifth to spare.
RUN_SECONDS = 20

DEFAULT_SEED = 42
DEFAULT_RUNS = 3

RESULT_SCHEMA = 1


def unit_of(name: str) -> str:
    """Unit of any metric the benchmark emits."""
    from bench import drives, trace

    return {**measure.END_TO_END, **trace.PER_LAYER, **drives.UNITS}[name]


def machine() -> Dict[str, object]:
    return {
        "arch": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def summarize(runs: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Median, range and count per metric over the runs of one workload."""
    metrics: Dict[str, Dict[str, object]] = {}
    for name, unit in measure.END_TO_END.items():
        values = [float(run["metrics"][name]) for run in runs]  # type: ignore[index]
        metrics[name] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "unit": unit,
        }
    first = runs[0]
    digests = {run["outcome_digest"] for run in runs}
    problems = [text for run in runs for text in run["problems"]]  # type: ignore[union-attr]
    if len(digests) > 1:
        problems.append(f"outcome_digest differs between runs: {sorted(map(str, digests))}")
    return {
        "metrics": metrics,
        "ops": sum(int(run["ops"]) for run in runs),  # type: ignore[call-overload]
        "failed": sum(int(run["failed"]) for run in runs),  # type: ignore[call-overload]
        "outcome_digest": first["outcome_digest"],
        "problems": problems,
        "sim": first["sim"],
        "inputs": first["inputs"],
    }


def print_summary(name: str, summary: Dict[str, object]) -> None:
    inputs: Dict[str, object] = summary["inputs"]  # type: ignore[assignment]
    digest = summary["outcome_digest"]
    print(
        f"{name}: ops = {summary['ops']} sessions, failed = {summary['failed']} "
        f"(over all runs), outcome_digest = {str(digest)[:16] if digest else 'n/a (wall-clock outcomes)'}"
    )
    if "network" in inputs:
        print(
            f"  traffic crossed {inputs['network']}, {inputs['load']}, "
            f"{inputs['clients']} clients, {inputs['shards']} shards, {inputs['loop']}"
        )
    for metric, row in summary["metrics"].items():  # type: ignore[union-attr]
        print(
            f"  {metric:<20} {row['median']:>10.4f} {row['unit']:<10} "
            f"[{row['min']:.4f} .. {row['max']:.4f}]  n={row['n']}"
        )
    sim: Dict[str, float] = summary["sim"]  # type: ignore[assignment]
    if "cdn.ffct_ms_mean.wira" in sim and "cdn.ffct_ms_mean.baseline" in sim:
        print(
            f"  simulated: mean FFCT baseline {sim['cdn.ffct_ms_mean.baseline']:.2f} ms, "
            f"wira {sim['cdn.ffct_ms_mean.wira']:.2f} ms"
        )
    for text in summary["problems"]:  # type: ignore[union-attr]
        print(f"  CHECK FAILED: {text}")
    if not summary["problems"] and not summary["failed"]:
        print("  output checks: ok")


def run_set(args: argparse.Namespace) -> Dict[str, List[Dict[str, object]]]:
    """Every selected workload in turn, ``--runs`` runs each; prints a summary."""
    seconds = RUN_SECONDS * args.scale
    runs: Dict[str, List[Dict[str, object]]] = {}
    for name in args.workload:
        runs[name] = [
            measure.measure(name, args.seed, seconds, args.sim_seed) for _ in range(args.runs)
        ]
        print_summary(name, summarize(runs[name]))
    return runs


def trace_set(args: argparse.Namespace) -> Dict[str, Dict[str, object]]:
    traces: Dict[str, Dict[str, object]] = {}
    for name in args.workload:
        result = measure.trace(name, args.seed, RUN_SECONDS * args.scale, args.sim_seed)
        traces[name] = result
        per_layer: Dict[str, float] = result["per_layer"]  # type: ignore[assignment]
        total = per_layer["trace.ledger_total_ms"]
        print(
            f"{name}: {result['ops']} sessions in the slice, traced total "
            f"{total:.3f} ms/session, tracing overhead {per_layer['trace.overhead_x']:.2f}x"
        )
        for metric in sorted(per_layer):
            share = ""
            if metric.endswith(".self_ms") or metric == "host.idle_ms":
                share = f"  {100 * per_layer[metric] / total:5.1f} %" if total else ""
            print(f"  {metric:<34} {per_layer[metric]:>14.4f} {unit_of(metric):<6}{share}")
        for text in result["problems"]:  # type: ignore[union-attr]
            print(f"  CHECK FAILED: {text}")
    return traces


def _failures(summaries: Dict[str, Dict[str, object]]) -> List[str]:
    return [name for name, summary in summaries.items() if not measure.is_correct(summary)]


def cmd_one(args: argparse.Namespace) -> int:
    if args.trace:
        result = measure.trace(args.workload, args.seed, args.seconds)
        values: Dict[str, float] = result["per_layer"]  # type: ignore[assignment]
    else:
        result = measure.measure(args.workload, args.seed, args.seconds)
        values = result["metrics"]  # type: ignore[assignment]
    for text in result["problems"]:  # type: ignore[union-attr]
        print(f"CHECK FAILED: {text}", file=sys.stderr)
    line = {
        "correct": measure.is_correct(result),
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in values.items()
        },
    }
    print(json.dumps(line))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    run_sets = []
    for index in range(args.sets):
        if args.sets > 1:
            print(f"== set {index + 1} of {args.sets}")
        run_sets.append(run_set(args))
    sets = [{name: summarize(runs) for name, runs in s.items()} for s in run_sets]
    # Over all sets together: the file's headline, and where a digest that
    # changed between sets shows up as a failed check.
    overall = {name: summarize([r for s in run_sets for r in s[name]]) for name in args.workload}
    bad = _failures(overall)
    if args.sets > 1:
        last = f"set{args.sets}"
        print(f"== set1 against {last}, both ways")
        lines, regressed = compare.compare_workloads(sets[0], sets[-1], "set1", last)
        _, regressed_back = compare.compare_workloads(sets[-1], sets[0])
        print("\n".join(lines))
        bad += regressed + regressed_back
    document: Dict[str, object] = {
        "schema": RESULT_SCHEMA,
        "machine": machine(),
        "seed": args.seed,
        "sim_seed": args.sim_seed,
        "seconds": RUN_SECONDS * args.scale,
        "workloads": overall,
        "sets": sets,
    }
    if args.with_trace:
        print("== traced slice")
        traces = trace_set(args)
        document["trace"] = {name: t["per_layer"] for name, t in traces.items()}
        bad += _failures(traces)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    if bad:
        print(f"FAILED: {', '.join(sorted(set(bad)))}")
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    return 1 if _failures(trace_set(args)) else 0


def cmd_compare(args: argparse.Namespace) -> int:
    lines, regressed = compare.compare_files(args.a, args.b)
    print("\n".join(lines))
    return 1 if regressed else 0


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="host-side randomness")
    parser.add_argument(
        "--sim-seed",
        type=int,
        default=None,
        help="move the simulated world off its pinned seeds (a confirming run)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiplies every workload's input size"
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS), help="default: all four"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("one", help="one run of one workload, one JSON line")
    one.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.set_defaults(handler=cmd_one)

    run = commands.add_parser("run", help="all workloads, end-to-end metrics, checks")
    _common(run)
    run.add_argument("--runs", type=int, default=DEFAULT_RUNS, help="fresh processes per workload")
    run.add_argument("--sets", type=int, default=1, help="2 compares the benchmark with itself")
    run.add_argument("--with-trace", action="store_true", help="add the traced slice")
    run.add_argument("--json", metavar="PATH", help="write the machine-readable result")
    run.set_defaults(handler=cmd_run)

    trace = commands.add_parser("trace", help="traced quarter-size slice, per-layer metrics")
    _common(trace)
    trace.set_defaults(handler=cmd_trace)

    cmp_parser = commands.add_parser("compare", help="two run --json files side by side")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    cmp_parser.set_defaults(handler=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "workload", None) is None:
        args.workload = list(WORKLOADS)
    if args.command != "compare":
        from bench import require_repro

        require_repro()
    return args.handler(args)

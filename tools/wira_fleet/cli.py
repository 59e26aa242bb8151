"""Command line front end: ``python -m tools.wira_fleet <cmd> ...``.

Commands
--------
``run``
    Start a fresh campaign (overwriting any checkpoint at the path).
    With ``--checkpoint PATH`` every completed chunk also writes a live
    snapshot into ``PATH.telemetry/``.
``resume``
    Continue an interrupted campaign from its checkpoint.
``status``
    Inspect a checkpoint: chunks done, sessions folded so far.  With
    ``--live``, poll the checkpoint's snapshots and render an in-terminal
    dashboard (per-scheme FFCT p50/p90/p99 strips, completion, faults,
    sessions/sec, ETA) that tracks the campaign as it runs.  Every view
    reads one summary, :func:`~repro.fleet.report.build_report`: the
    dashboard over the snapshots so far, plain ``status`` and
    ``report`` over the checkpointed chunks.
``verify``
    Cross-check the telemetry snapshots against the checkpoint: schema
    versions, campaign key, chunk coverage, and that the live-merged
    aggregates are byte-identical to the checkpoint-merged ones.
``report``
    Build the deterministic JSON report from a checkpoint — complete
    campaigns only, unless ``--partial`` asks for a best-effort summary
    of the completed chunks.  ``--html`` additionally writes a
    self-contained HTML artifact (CDF chart, phase tables).

Reads are safe against a concurrently running campaign: checkpoint and
snapshot files are written atomically (``tempfile`` then ``os.replace``),
so one read sees one whole file.

Exit codes: 0 success, 1 campaign/validation errors (mismatched or
missing checkpoint, incomplete campaign without ``--partial``, failed
verification, telemetry schema skew), 2 usage/IO errors (argparse
errors, unreadable paths).

The tool is stdlib-only: it imports the in-repo ``repro`` packages
(adding ``<repo>/src`` to ``sys.path`` when not already importable) and
nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _ensure_repro_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_REPO_ROOT / "src"))


_ensure_repro_importable()

from repro.fleet.aggregate import CampaignAggregate, merge_chunks  # noqa: E402
from repro.fleet.checkpoint import CheckpointState, load_checkpoint  # noqa: E402
from repro.fleet.engine import (  # noqa: E402
    DEFAULT_SCHEMES,
    CampaignMismatchError,
    FleetConfig,
    ProgressFn,
    run_campaign,
)
from repro.fleet.htmlreport import render_html_report  # noqa: E402
from repro.fleet.report import PERCENTILES, build_report, canonical_json, report_hash  # noqa: E402
from repro.fleet.telemetry import (  # noqa: E402
    Progress,
    TelemetrySchemaError,
    default_telemetry_dir,
    live_report,
    merge_snapshots,
    scan_snapshots,
)
from repro.obs.timeline import render_quantile_strips  # noqa: E402
from repro.workload.population import DeploymentConfig  # noqa: E402


# ---------------------------------------------------------------------------
# Helpers


def _progress_printer(quiet: bool) -> Optional[ProgressFn]:
    if quiet:
        return None

    def emit(done: int, total: int, sessions: int) -> None:
        print(f"\r  chunks {done}/{total}  sessions {sessions}", end="", flush=True)
        if done == total:
            print()

    return emit


def _config_from_args(args: argparse.Namespace) -> FleetConfig:
    population = DeploymentConfig(n_od_pairs=args.od_pairs, seed=args.seed)
    return FleetConfig(
        population=population,
        schemes=tuple(args.schemes),
        chunk_chains=args.chunk_chains,
        checkpoint_every=args.checkpoint_every,
        sketch_alpha=args.alpha,
    )


def _checkpoint_report(
    state: CheckpointState,
) -> Tuple[CampaignAggregate, Dict[str, object]]:
    """The checkpointed chunks merged in chunk order, and their report."""
    config = FleetConfig.from_json(state.config)
    ordered = [state.chunks[i] for i in sorted(state.chunks)]
    aggregate = merge_chunks(config.schemes, config.sketch_alpha, ordered)
    return aggregate, build_report(aggregate, state.key)


def _emit_report(report: Dict[str, object], out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {out}")
    else:
        print(text)
    print(f"report hash: {report_hash(report)}")


def _finish(
    config: FleetConfig, aggregate: CampaignAggregate, args: argparse.Namespace
) -> int:
    report = build_report(aggregate, config.key())
    _emit_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    checkpoint = Path(args.checkpoint) if args.checkpoint else None
    aggregate = run_campaign(
        config,
        checkpoint_path=checkpoint,
        jobs=args.jobs,
        resume=False,
        progress=_progress_printer(args.quiet),
        telemetry_dir=default_telemetry_dir(checkpoint) if checkpoint else None,
    )
    return _finish(config, aggregate, args)


def cmd_resume(args: argparse.Namespace) -> int:
    checkpoint = Path(args.checkpoint)
    state = load_checkpoint(checkpoint)
    if state is None:
        print(f"error: no usable checkpoint at {checkpoint}", file=sys.stderr)
        return EXIT_FAILED
    config = FleetConfig.from_json(state.config)
    try:
        aggregate = run_campaign(
            config,
            checkpoint_path=checkpoint,
            jobs=args.jobs,
            resume=True,
            progress=_progress_printer(args.quiet),
            telemetry_dir=default_telemetry_dir(checkpoint),
        )
    except CampaignMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    return _finish(config, aggregate, args)


def _print_status_summary(state: CheckpointState) -> None:
    config = FleetConfig.from_json(state.config)
    _, report = _checkpoint_report(state)
    done = len(state.chunks)
    print(f"campaign:  {state.key}")
    print(
        f"chains:    {config.population.n_od_pairs} OD pairs, "
        f"seed {config.population.seed}"
    )
    print(f"schemes:   {', '.join(config.schemes)}")
    print(f"chunks:    {done}/{state.n_chunks} completed")
    print(f"sessions:  {report['total_sessions']} folded")
    print(f"state:     {'complete' if state.complete else 'resumable'}")


def _render_live(report: Mapping[str, Any], progress: Progress) -> str:
    """One dashboard frame: header, quantile strips, per-scheme counters."""
    schemes = report["schemes"]
    faults = {value: entry["sessions"] - entry["completed"] for value, entry in schemes.items()}
    pct = progress.chunks_done / progress.n_chunks * 100
    rate, eta = progress.sessions_per_s, progress.eta_s
    strips = {
        value: None if entry["ffct"] is None else tuple(entry["ffct"][f"p{p}"] for p in PERCENTILES)
        for value, entry in sorted(schemes.items())
    }
    lines = [
        f"campaign {report['campaign_key'][:12]}…  "
        f"chunks {progress.chunks_done}/{progress.n_chunks} ({pct:.0f}%)  "
        f"sessions {report['total_sessions']}  faults {sum(faults.values())}",
        f"rate     {'–' if rate is None else f'{rate:.1f}/s'}  "
        f"eta {'–' if eta is None else f'{eta:.0f}s'}",
        "",
        render_quantile_strips(strips),
        "",
        f"{'scheme':<12} {'sessions':>9} {'completed':>10} {'faults':>7}",
    ]
    for value, entry in sorted(schemes.items()):
        lines.append(
            f"{value:<12} {entry['sessions']:>9} "
            f"{entry['completed']:>10} {faults[value]:>7}"
        )
    return "\n".join(lines)


def cmd_status(args: argparse.Namespace) -> int:
    checkpoint = Path(args.checkpoint)
    if not args.live:
        state = load_checkpoint(checkpoint)
        if state is None:
            print(f"error: no usable checkpoint at {checkpoint}", file=sys.stderr)
            return EXIT_FAILED
        _print_status_summary(state)
        return EXIT_OK

    telemetry_dir = default_telemetry_dir(checkpoint)
    polls_left: Optional[int] = args.polls
    interactive = sys.stdout.isatty()
    while True:
        try:
            snapshots = scan_snapshots(telemetry_dir)
        except TelemetrySchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILED
        # Keep the checkpoint's campaign: a restart can leave a stale
        # foreign snapshot behind for one poll, and a campaign writes its
        # checkpoint before its first chunk, so its key is always there.
        state = load_checkpoint(checkpoint)
        key = None if state is None else state.key
        snapshots = {i: s for i, s in snapshots.items() if s.campaign_key == key}
        live: Optional[Tuple[Dict[str, object], Progress]] = None
        if snapshots:
            try:
                live = live_report(snapshots)
            except ValueError:
                live = None
        if live is not None:
            if interactive:
                print("\x1b[2J\x1b[H", end="")
            print(_render_live(*live))
            if live[1].complete:
                return EXIT_OK
        else:
            # A failed or empty poll keeps the loop alive — the campaign
            # may simply not have completed a chunk yet.
            print(f"(no telemetry snapshots yet in {telemetry_dir})")
        if polls_left is not None:
            polls_left -= 1
            if polls_left <= 0:
                return EXIT_OK
        time.sleep(args.interval)


def cmd_verify(args: argparse.Namespace) -> int:
    checkpoint = Path(args.checkpoint)
    state = load_checkpoint(checkpoint)
    if state is None:
        print(f"error: no usable checkpoint at {checkpoint}", file=sys.stderr)
        return EXIT_FAILED
    telemetry_dir = default_telemetry_dir(checkpoint)
    try:
        snapshots = scan_snapshots(telemetry_dir)
    except TelemetrySchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    failures: List[str] = []
    if not snapshots:
        failures.append(f"no telemetry snapshots in {telemetry_dir}")
    foreign = sorted(
        i for i, s in snapshots.items() if s.campaign_key != state.key
    )
    if foreign:
        failures.append(
            f"snapshots for chunks {foreign} belong to a different campaign"
        )
    expected = set(state.chunks)
    have = {i for i, s in snapshots.items() if s.campaign_key == state.key}
    missing = sorted(expected - have)
    extra = sorted(have - expected)
    if missing:
        failures.append(f"checkpointed chunks missing snapshots: {missing}")
    if extra:
        failures.append(f"snapshots for chunks not in the checkpoint: {extra}")
    if not failures:
        final, _ = _checkpoint_report(state)
        live = merge_snapshots(snapshots.values())
        final_json = canonical_json(final.to_json())
        live_json = canonical_json(live.to_json())
        if final_json != live_json:
            failures.append(
                "live-merged snapshot aggregates differ from "
                "checkpoint-merged aggregates"
            )
        else:
            print(
                f"ok: {len(snapshots)} snapshots cover "
                f"{len(expected)}/{state.n_chunks} checkpointed chunks; "
                f"live merge is byte-identical to the checkpoint merge"
            )
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    checkpoint = Path(args.checkpoint)
    state = load_checkpoint(checkpoint)
    if state is None:
        print(f"error: no usable checkpoint at {checkpoint}", file=sys.stderr)
        return EXIT_FAILED
    if not state.complete and not args.partial:
        print(
            f"error: campaign incomplete ({len(state.chunks)}/{state.n_chunks} "
            f"chunks); rerun with --partial for a best-effort summary "
            f"or resume the campaign",
            file=sys.stderr,
        )
        return EXIT_FAILED
    aggregate, report = _checkpoint_report(state)
    if not state.complete:
        report["partial"] = {
            "chunks_completed": len(state.chunks),
            "chunks_total": state.n_chunks,
        }
    if args.html:
        progress: Optional[Progress] = None
        telemetry_dir = default_telemetry_dir(checkpoint)
        try:
            snapshots = scan_snapshots(telemetry_dir)
        except TelemetrySchemaError as exc:
            # status --live and verify treat this skew as a hard error;
            # the HTML report can still be built without its throughput
            # section, but silence would mask a version mismatch.
            print(
                f"warning: ignoring telemetry snapshots in {telemetry_dir} "
                f"({exc}); html report will omit the throughput section",
                file=sys.stderr,
            )
            snapshots = {}
        # Only this campaign's snapshots of the reported chunks may feed
        # the throughput rows: a checkpoint can lag the snapshots.
        snapshots = {
            i: s
            for i, s in snapshots.items()
            if s.campaign_key == state.key and i in state.chunks
        }
        if snapshots:
            _, progress = live_report(snapshots)
        document = render_html_report(
            report, aggregate, config=state.config, progress=progress
        )
        Path(args.html).write_text(document, encoding="utf-8")
        print(f"html report written to {args.html}")
    _emit_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_report_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the JSON report here instead of stdout",
    )


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: WIRA_JOBS, else 1)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    _add_report_out(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wira-fleet",
        description="Fleet-scale campaign runner for the Wira reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start a fresh campaign")
    run.add_argument("--od-pairs", type=int, default=1000, metavar="N",
                     help="OD chains in the population (default 1000)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--schemes", nargs="+", default=list(DEFAULT_SCHEMES),
                     metavar="SCHEME", help=f"schemes to replay (default: all of {', '.join(DEFAULT_SCHEMES)})")
    run.add_argument("--chunk-chains", type=int, default=25, metavar="N",
                     help="chains per work unit (default 25)")
    run.add_argument("--checkpoint-every", type=int, default=4, metavar="N",
                     help="chunks between checkpoint writes (default 4)")
    run.add_argument("--alpha", type=float, default=0.01,
                     help="sketch relative-error bound (default 0.01)")
    run.add_argument("--checkpoint", metavar="PATH", default=None,
                     help="checkpoint file (enables resume after interruption "
                          "and live snapshots in PATH.telemetry/)")
    _add_exec_args(run)
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser("resume", help="continue from a checkpoint")
    resume.add_argument("--checkpoint", metavar="PATH", required=True)
    _add_exec_args(resume)
    resume.set_defaults(func=cmd_resume)

    status = sub.add_parser("status", help="inspect a checkpoint")
    status.add_argument("--checkpoint", metavar="PATH", required=True)
    status.add_argument("--live", action="store_true",
                        help="poll <checkpoint>.telemetry and render a "
                             "live dashboard until the campaign completes")
    status.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                        help="seconds between live polls (default 2)")
    status.add_argument("--polls", type=int, default=None, metavar="N",
                        help="stop after N live polls (default: until complete)")
    status.set_defaults(func=cmd_status)

    verify = sub.add_parser(
        "verify", help="cross-check telemetry snapshots against a checkpoint"
    )
    verify.add_argument("--checkpoint", metavar="PATH", required=True)
    verify.set_defaults(func=cmd_verify)

    report = sub.add_parser("report", help="build the report from a checkpoint")
    report.add_argument("--checkpoint", metavar="PATH", required=True)
    report.add_argument("--partial", action="store_true",
                        help="allow a best-effort report of an incomplete campaign")
    report.add_argument("--html", metavar="PATH", default=None,
                        help="also write a self-contained HTML report here")
    _add_report_out(report)
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)  # type: ignore[no-any-return]
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

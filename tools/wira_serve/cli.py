"""Command line front end: ``python -m tools.wira_serve run ...``.

Runs a serve-mode campaign — N real shard worker processes behind the
consistent-hash router, every session pushed over localhost UDP — and
gates the socket-measured results against the simulator reference (the
shards' own timing oracle).  The ``serve-smoke`` CI job is exactly this
command with small knobs.

Exit codes: 0 all gates passed, 1 a gate failed (wire failures,
rejected cookies, or serve/sim disagreement), 2 usage errors.

The tool is stdlib-only: it imports the in-repo ``repro`` packages
(adding ``<repo>/src`` to ``sys.path`` when not already importable) and
nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _ensure_repro_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_REPO_ROOT / "src"))


def cmd_run(args: argparse.Namespace) -> int:
    _ensure_repro_importable()
    from repro.serve.loadtest import (
        ServeLoadtestConfig,
        render_serve_html,
        run_loadtest,
    )
    from repro.workload.population import DeploymentConfig

    config = ServeLoadtestConfig(
        population=DeploymentConfig(
            n_od_pairs=args.od_pairs,
            video_frames_per_session=args.video_frames,
            seed=args.seed,
        ),
        schemes=tuple(args.schemes),
        shards=args.shards,
        concurrency=args.concurrency,
        subprocess_shards=not args.in_process,
        reshard_after_chains=args.reshard_after,
    )
    results = run_loadtest(config)
    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(results, indent=2, sort_keys=True))
    if args.html is not None:
        html_path = Path(args.html)
        html_path.parent.mkdir(parents=True, exist_ok=True)
        html_path.write_text(render_serve_html(results, config))

    gates = results["gates"]
    comparison = results["comparison"]
    assert isinstance(gates, dict) and isinstance(comparison, dict)
    print(
        f"serve campaign: {results['telemetry']['sessions_measured']} sessions "  # type: ignore[index]
        f"over {config.shards} shard(s), "
        f"{gates['wire_failures']} wire failure(s), "
        f"{gates['rejected_cookies']} rejected cookie(s)"
    )
    for value in sorted(comparison["schemes"]):
        entry = comparison["schemes"][value]
        mean = entry["ffct"]["ffct_mean"]
        fmt = (
            lambda v: "n/a" if v is None else f"{float(v) * 1e3:.1f}ms"
        )
        print(
            f"  {value}: sessions {entry['serve']['sessions']} "
            f"(sim {entry['sim']['sessions']}), "
            f"ffct mean {fmt(mean['serve'])} vs sim {fmt(mean['sim'])} "
            f"[{'ok' if entry['ok'] else 'FAIL'}]"
        )
    verdict = "PASS" if gates["ok"] else "FAIL"
    print(f"verdict: {verdict}")
    return EXIT_OK if gates["ok"] else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wira-serve", description="Serve-mode socket load test"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a serve campaign + sim comparison")
    run.add_argument("--od-pairs", type=int, default=36, help="OD chains")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--schemes", nargs="+", default=["baseline", "wira"], help="scheme values"
    )
    run.add_argument("--shards", type=int, default=2, help="shard worker count")
    run.add_argument(
        "--video-frames", type=int, default=6, help="frames per session"
    )
    run.add_argument(
        "--concurrency", type=int, default=64, help="chains in flight at once"
    )
    run.add_argument(
        "--in-process",
        action="store_true",
        help="run shards in-process instead of worker processes",
    )
    run.add_argument(
        "--reshard-after",
        type=int,
        default=None,
        metavar="CHAINS",
        help="add one shard after this many chains complete",
    )
    run.add_argument("--out", default=None, help="write results JSON here")
    run.add_argument("--html", default=None, help="write the HTML report here")
    run.set_defaults(func=cmd_run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())

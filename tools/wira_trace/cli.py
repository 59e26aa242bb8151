"""Command line front end: ``python -m tools.wira_trace <cmd> ...``.

Exit codes: 0 success, 1 validation defects found (``validate``),
2 usage/IO errors (no trace files, unreadable input, bad arguments).

The tool is stdlib-only: it imports the in-repo ``repro.obs`` schema and
the phase names (adding ``<repo>/src`` to ``sys.path`` when ``repro`` is
not already importable) and nothing else.  A session's phases are the
``session:phases`` record the simulator wrote when the session ended.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ERROR = 2

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _ensure_repro_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_REPO_ROOT / "src"))


_ensure_repro_importable()

from repro.cdn.session import PHASES  # noqa: E402
from repro.obs.events import decode_record, validate_trace_lines  # noqa: E402


# ---------------------------------------------------------------------------
# Trace-set loading


def collect_trace_files(paths: List[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.jsonl`` files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.jsonl")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(set(files))


def session_label(path: Path) -> str:
    """Session label from a ``<label>--<conn>.jsonl`` trace file name."""
    stem = path.stem
    return stem.rsplit("--", 1)[0] if "--" in stem else stem


def load_records(path: Path) -> List[Dict[str, object]]:
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(decode_record(line))
    return records


def group_sessions(files: List[Path]) -> Dict[str, List[Path]]:
    """Group per-connection trace files into sessions, sorted by label."""
    sessions: Dict[str, List[Path]] = {}
    for path in files:
        sessions.setdefault(session_label(path), []).append(path)
    return {label: sessions[label] for label in sorted(sessions)}


def summarize_session(label: str, paths: List[Path]) -> Dict[str, object]:
    """One session's event counts, FFCT and phase breakdown."""
    records: List[Dict[str, object]] = []
    for path in paths:
        records.extend(load_records(path))
    counts: Dict[str, int] = {}
    ffct: Optional[float] = None
    phases: Optional[Dict[str, float]] = None
    for record in records:
        name = record.get("name")
        if not isinstance(name, str) or name == "trace:meta":
            continue
        counts[name] = counts.get(name, 0) + 1
        data = record.get("data")
        if not isinstance(data, dict):
            continue
        if name == "session:first_frame" and ffct is None:
            if isinstance(data.get("ffct"), (int, float)):
                ffct = float(data["ffct"])  # type: ignore[arg-type]
        elif name == "session:phases" and phases is None:
            if all(isinstance(data.get(phase), (int, float)) for phase in PHASES):
                phases = {phase: float(data[phase]) for phase in PHASES}  # type: ignore[arg-type]
    return {
        "session": label,
        "files": [p.name for p in paths],
        "events": sum(counts.values()),
        "counts": {k: counts[k] for k in sorted(counts)},
        "ffct": ffct,
        "phases": phases,
    }


def mean_phases(
    summaries: List[Dict[str, object]],
) -> Tuple[Optional[Dict[str, float]], int]:
    """Phase-wise mean over sessions with a breakdown, and their count."""
    dicts = [s["phases"] for s in summaries if s["phases"] is not None]
    if not dicts:
        return None, 0
    means = {
        name: sum(d[name] for d in dicts) / len(dicts)  # type: ignore[index]
        for name in PHASES
    }
    return means, len(dicts)


def _ms(seconds: Optional[float]) -> str:
    return "-" if seconds is None else f"{seconds * 1000:.1f}ms"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    files = collect_trace_files(args.paths)
    if not files:
        print("wira-trace: no trace files found", file=sys.stderr)
        return EXIT_ERROR
    defects: Dict[str, List[str]] = {}
    for path in files:
        errors = validate_trace_lines(
            path.read_text(encoding="utf-8").splitlines(),
            known_names=not args.allow_unknown_names,
        )
        if errors:
            defects[str(path)] = errors
    if args.json:
        print(
            json.dumps(
                {
                    "files_checked": len(files),
                    "files_invalid": len(defects),
                    "defects": defects,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for path_name in sorted(defects):
            for error in defects[path_name]:
                print(f"{path_name}: {error}")
        status = "invalid" if defects else "valid"
        print(f"{len(files)} file(s) checked, {len(defects)} invalid — {status}")
    return EXIT_INVALID if defects else EXIT_OK


def cmd_summarize(args: argparse.Namespace) -> int:
    files = collect_trace_files(args.paths)
    if not files:
        print("wira-trace: no trace files found", file=sys.stderr)
        return EXIT_ERROR
    summaries = [
        summarize_session(label, paths)
        for label, paths in group_sessions(files).items()
    ]
    means, n_profiled = mean_phases(summaries)
    if args.json:
        print(
            json.dumps(
                {
                    "sessions": summaries,
                    "mean_phases": means,
                    "sessions_profiled": n_profiled,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return EXIT_OK
    for summary in summaries:
        phases = summary["phases"]
        print(f"{summary['session']}: {summary['events']} events, ffct {_ms(summary['ffct'])}")
        if phases is not None:
            detail = "  ".join(f"{name}={_ms(phases[name])}" for name in PHASES)
            print(f"  {detail}")
    if means is not None:
        detail = "  ".join(f"{name}={_ms(means[name])}" for name in PHASES)
        print(f"mean over {n_profiled} session(s): {detail}")
    return EXIT_OK


def cmd_diff(args: argparse.Namespace) -> int:
    try:
        files_a = collect_trace_files([args.a])
        files_b = collect_trace_files([args.b])
    except FileNotFoundError as exc:
        print(f"wira-trace: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not files_a or not files_b:
        print("wira-trace: both sides need at least one trace file", file=sys.stderr)
        return EXIT_ERROR
    sums_a = [summarize_session(l, p) for l, p in group_sessions(files_a).items()]
    sums_b = [summarize_session(l, p) for l, p in group_sessions(files_b).items()]
    means_a, n_a = mean_phases(sums_a)
    means_b, n_b = mean_phases(sums_b)
    if means_a is None or means_b is None:
        print("wira-trace: no profilable sessions on one side", file=sys.stderr)
        return EXIT_ERROR
    deltas = {name: means_b[name] - means_a[name] for name in PHASES}
    total_a = sum(means_a.values())
    total_b = sum(means_b.values())
    if args.json:
        print(
            json.dumps(
                {
                    "a": {"path": args.a, "sessions": n_a, "phases": means_a, "total": total_a},
                    "b": {"path": args.b, "sessions": n_b, "phases": means_b, "total": total_b},
                    "delta": {**deltas, "total": total_b - total_a},
                },
                indent=2,
                sort_keys=True,
            )
        )
        return EXIT_OK
    print(f"a: {args.a} ({n_a} session(s), mean ffct {_ms(total_a)})")
    print(f"b: {args.b} ({n_b} session(s), mean ffct {_ms(total_b)})")
    print(f"{'phase':<10} {'a':>10} {'b':>10} {'delta (b-a)':>12}")
    for name in PHASES:
        print(
            f"{name:<10} {_ms(means_a[name]):>10} {_ms(means_b[name]):>10} "
            f"{deltas[name] * 1000:>+10.1f}ms"
        )
    print(
        f"{'total':<10} {_ms(total_a):>10} {_ms(total_b):>10} "
        f"{(total_b - total_a) * 1000:>+10.1f}ms"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.wira_trace",
        description="Inspect repro.obs JSONL traces: validate, summarize, diff.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="schema-check trace files")
    p_validate.add_argument("paths", nargs="+", help="trace files or directories")
    p_validate.add_argument("--json", action="store_true", help="JSON report")
    p_validate.add_argument(
        "--allow-unknown-names",
        action="store_true",
        help="accept event names outside the registry (forward compat)",
    )
    p_validate.set_defaults(func=cmd_validate)

    p_summarize = sub.add_parser("summarize", help="per-session counts and phases")
    p_summarize.add_argument("paths", nargs="+", help="trace files or directories")
    p_summarize.add_argument("--json", action="store_true", help="JSON report")
    p_summarize.set_defaults(func=cmd_summarize)

    p_diff = sub.add_parser("diff", help="compare two trace sets' phase means")
    p_diff.add_argument("a", help="baseline trace file or directory")
    p_diff.add_argument("b", help="comparison trace file or directory")
    p_diff.add_argument("--json", action="store_true", help="JSON report")
    p_diff.set_defaults(func=cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"wira-trace: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"wira-trace: malformed trace input ({exc})", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

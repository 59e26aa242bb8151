"""Command line front end: ``python -m tools.wira_lint src/ tests/``.

Exit codes: 0 clean, 1 violations found (or stale baseline entries),
2 parse/usage errors.

The committed baseline at ``tools/wira_lint/baseline.json`` is picked up
automatically when it exists relative to the working directory; pass
``--no-baseline`` to see grandfathered findings, ``--update-baseline``
to rewrite it from the current findings.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Set

from tools.wira_lint.baseline import BaselineError
from tools.wira_lint.engine import PARSE_ERROR_CODE, lint_paths
from tools.wira_lint.report import render_json, render_sarif, render_text
from tools.wira_lint.rules import RULES

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2

DEFAULT_BASELINE = Path("tools/wira_lint/baseline.json")


def _parse_select(raw: Optional[str]) -> Optional[Set[str]]:
    if raw is None:
        return None
    codes = {part.strip().upper() for part in raw.split(",") if part.strip()}
    unknown = codes - set(RULES)
    if unknown:
        raise SystemExit(f"wira-lint: unknown rule code(s): {', '.join(sorted(unknown))}")
    return codes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.wira_lint",
        description="Repo-specific whole-program determinism linter (rules WL001-WL015).",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests"], help="files or directories")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", help="report format"
    )
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    parser.add_argument(
        "--select", help="comma-separated rule codes to run (default: all)", default=None
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule table and exit")
    parser.add_argument(
        "--jobs", type=int, default=None, help="extract facts with N worker processes"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the content-fingerprint facts cache (off by default)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="ignore --cache-dir and run cold"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE} if present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="report grandfathered findings too"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit clean",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, rule in sorted(RULES.items()):
            print(f"{code}  {rule.name:<22} {rule.summary}")
        return EXIT_CLEAN

    try:
        select = _parse_select(args.select)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR

    baseline_path: Optional[str] = args.baseline
    if baseline_path is None and not args.no_baseline and DEFAULT_BASELINE.is_file():
        baseline_path = str(DEFAULT_BASELINE)
    if args.no_baseline and not args.update_baseline:
        baseline_path = None
    if args.update_baseline and baseline_path is None:
        baseline_path = str(DEFAULT_BASELINE)

    cache_dir = None if args.no_cache else args.cache_dir

    try:
        result = lint_paths(
            args.paths,
            select,
            jobs=args.jobs,
            cache_dir=cache_dir,
            baseline_path=baseline_path,
            update_baseline=args.update_baseline,
        )
    except BaselineError as exc:
        print(f"wira-lint: {exc}", file=sys.stderr)
        return EXIT_ERROR

    violations = result.violations
    if args.format == "json":
        report = render_json(violations, result.files_scanned)
    elif args.format == "sarif":
        report = render_sarif(violations, result.files_scanned)
    else:
        report = render_text(violations, result.files_scanned)
    if args.output:
        Path(args.output).write_text(report if report.endswith("\n") else report + "\n")
    else:
        print(report, end="" if report.endswith("\n") else "\n")

    if result.suppressed_baseline and args.format == "text" and not args.output:
        print(
            f"wira-lint: {result.suppressed_baseline} finding(s) suppressed by baseline",
            file=sys.stderr,
        )
    if result.stale_baseline:
        print(
            "wira-lint: baseline entries no longer match any finding "
            "(the baseline may only shrink -- run --update-baseline):",
            file=sys.stderr,
        )
        for path, code, message in result.stale_baseline:
            print(f"  {path}: {code} {message}", file=sys.stderr)

    if any(v.code == PARSE_ERROR_CODE for v in violations):
        return EXIT_ERROR
    if violations or result.stale_baseline:
        return EXIT_VIOLATIONS
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

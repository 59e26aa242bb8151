"""Command line front end: ``python -m tools.wira_lint src/ tests/ tools/ examples/``.

Exit codes: 0 clean, 1 violations found, 2 parse/usage errors -- a path
that does not exist or holds no Python file is a usage error, so a
mistyped path cannot lint clean.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Set

from tools.wira_lint.engine import PARSE_ERROR_CODE, iter_python_files, lint_paths
from tools.wira_lint.report import render_json, render_text
from tools.wira_lint.rules import RULES

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


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
        description=(
            "Repo-specific determinism linter "
            f"({len(RULES)} rules, {min(RULES)}-{max(RULES)})."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "tools", "examples"],
        help="files or directories",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    parser.add_argument(
        "--select", help="comma-separated rule codes to run (default: all)", default=None
    )
    parser.add_argument("--list-rules", action="store_true", help="print the rule table and exit")
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

    for raw in args.paths:
        if not Path(raw).exists():
            print(f"wira-lint: no such file or directory: {raw}", file=sys.stderr)
            return EXIT_ERROR
        if not iter_python_files([raw]):
            print(f"wira-lint: no Python file to lint in {raw}", file=sys.stderr)
            return EXIT_ERROR

    violations, files_scanned = lint_paths(args.paths, select)
    if args.format == "json":
        report = render_json(violations, files_scanned)
    else:
        report = render_text(violations, files_scanned)
    if args.output:
        Path(args.output).write_text(
            report if report.endswith("\n") else report + "\n", encoding="utf-8"
        )
    else:
        print(report, end="" if report.endswith("\n") else "\n")

    if any(v.code == PARSE_ERROR_CODE for v in violations):
        return EXIT_ERROR
    if violations:
        return EXIT_VIOLATIONS
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""Text and JSON reporters for wira-lint findings."""

from __future__ import annotations

import json
from collections import Counter
from typing import List, Sequence

from tools.wira_lint.engine import Violation
from tools.wira_lint.rules import RULES

REPORT_VERSION = 1


def render_text(violations: Sequence[Violation], files_scanned: int) -> str:
    lines: List[str] = [v.render() for v in violations]
    counts = Counter(v.code for v in violations)
    if violations:
        summary = ", ".join(f"{code}: {n}" for code, n in sorted(counts.items()))
        lines.append("")
        lines.append(
            f"wira-lint: {len(violations)} violation(s) in {files_scanned} file(s) [{summary}]"
        )
    else:
        lines.append(f"wira-lint: clean ({files_scanned} file(s) scanned)")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation], files_scanned: int) -> str:
    payload = {
        "version": REPORT_VERSION,
        "files_scanned": files_scanned,
        "counts": dict(sorted(Counter(v.code for v in violations).items())),
        "violations": [
            {
                "file": v.path,
                "line": v.line,
                "col": v.col,
                "code": v.code,
                "rule": RULES[v.code].name if v.code in RULES else "parse-error",
                "message": v.message,
            }
            for v in violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

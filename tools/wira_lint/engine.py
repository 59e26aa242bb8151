"""Lint engine: fact extraction -> registry join -> suppression.

The pipeline for every entry point is the same:

1. **extract** — one AST pass per file producing :class:`FileFacts`
   (raw per-file findings + registry facts);
2. **join** — the WL013 cross-check reads every file's registry facts:
   obs event names against ``EVENT_NAMES``, both directions;
3. **suppress** — pragmas are applied per line / per file and pragma
   usage is accounted (feeding WL009 unused-pragma findings).

Every run parses every file, in-process: the whole tree lints in well
under a second.

Public API (kept stable for the test-suite and external callers):
``Violation``, ``lint_source``, ``lint_sources``, ``lint_file``,
``lint_paths`` (returns ``(violations, files_scanned)``), and
``iter_python_files``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.wira_lint.facts import PARSE_ERROR_CODE, FileFacts, extract_facts
from tools.wira_lint.rules import RULES

__all__ = [
    "PARSE_ERROR_CODE",
    "Violation",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
]


@dataclass(frozen=True)
class Violation:
    """One finding, formatted as ``file:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """All ``.py`` files under ``paths``, deduplicated and sorted."""
    found: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            found.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = candidate.relative_to(path).parts
                if any(part == "__pycache__" or part.startswith(".") for part in parts):
                    continue
                found.add(candidate)
    return sorted(found)


# ---------------------------------------------------------------------------
# WL013: the event registry, joined over every file.


def _registry(all_facts: Sequence[FileFacts], name: str) -> Tuple[Set[str], List[FileFacts]]:
    values: Set[str] = set()
    defining: List[FileFacts] = []
    for facts in all_facts:
        if name in facts.registries:
            values.update(facts.registries[name])
            defining.append(facts)
    return values, defining


def _literal_evidence(zone_facts: Sequence[FileFacts], name: str, defining: Set[str]) -> bool:
    """True when ``name`` appears as a literal outside its registry
    definition (covers dynamically-selected emit names such as
    ``name = "fault:link_down" if down else "fault:link_up"``)."""
    for facts in zone_facts:
        hits = sum(1 for _, value in facts.event_literals if value == name)
        if hits > (1 if facts.path in defining else 0):
            return True
    return False


def _event_registry_findings(all_facts: Sequence[FileFacts]) -> List[Violation]:
    rule = RULES["WL013"]
    registry, defining = _registry(all_facts, "EVENT_NAMES")
    if not defining:
        return []
    # Only the rule's zone counts as evidence: a name that only a test
    # emits or mentions is still registered but never emitted.
    zone_facts = [facts for facts in all_facts if rule.applies_to(facts.path)]
    findings: List[Violation] = []
    emitted: Set[str] = set()
    for facts in zone_facts:
        for line, name in facts.emit_events:
            emitted.add(name)
            if name not in registry:
                findings.append(
                    Violation(
                        facts.path,
                        line,
                        0,
                        "WL013",
                        f"emitted event name '{name}' is not registered in events.EVENT_NAMES",
                    )
                )
    anchor = defining[0]
    if not emitted or not rule.applies_to(anchor.path):
        # No emit site in scope (e.g. linting the registry module by
        # itself): the reverse direction would flag every name.
        return findings
    defining_paths = {facts.path for facts in defining}
    for name in sorted(registry - emitted):
        if _literal_evidence(zone_facts, name, defining_paths):
            continue
        line = next(
            (l for l, value in anchor.event_literals if value == name),
            anchor.registry_lines.get("EVENT_NAMES", 1),
        )
        findings.append(
            Violation(
                anchor.path,
                line,
                0,
                "WL013",
                f"EVENT_NAMES registers '{name}' but no scanned code emits or references it",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Suppression and WL009 accounting.


def _pragma_maps(facts: FileFacts):
    """(line -> codes, file-wide code -> pragma line) for one file."""
    by_line: Dict[int, Set[str]] = {}
    file_wide: Dict[str, int] = {}
    for line, scope, codes in facts.pragmas:
        if scope == "file":
            for code in codes:
                file_wide.setdefault(code, line)
        else:
            by_line.setdefault(line, set()).update(codes)
    return by_line, file_wide


def _apply_pragmas(
    all_facts: Sequence[FileFacts],
    violations: List[Violation],
    select: Optional[Set[str]],
) -> List[Violation]:
    """Drop pragma-suppressed findings; emit WL009 for dead pragmas."""
    maps = {facts.path: _pragma_maps(facts) for facts in all_facts}
    used: Set[Tuple[str, int, str]] = set()
    kept: List[Violation] = []
    for violation in violations:
        if violation.code == PARSE_ERROR_CODE or violation.path not in maps:
            kept.append(violation)
            continue
        by_line, file_wide = maps[violation.path]
        if violation.code in by_line.get(violation.line, ()):
            used.add((violation.path, violation.line, violation.code))
        elif violation.code in file_wide:
            used.add((violation.path, file_wide[violation.code], violation.code))
        else:
            kept.append(violation)

    wl009 = RULES["WL009"]
    if select is not None and "WL009" not in select:
        return kept
    for facts in all_facts:
        if facts.parse_error is not None or not wl009.applies_to(facts.path):
            continue
        by_line, file_wide = maps[facts.path]
        for line, scope, codes in facts.pragmas:
            # A pragma naming WL009 on its own line (or file-wide) is the
            # explicit opt-out for this check.
            if "WL009" in by_line.get(line, ()) or "WL009" in file_wide:
                continue
            for code in codes:
                if code == "WL009":
                    continue
                rule = RULES.get(code)
                if rule is None:
                    message = f"pragma disables unknown rule code {code}"
                elif select is not None and code not in select:
                    continue  # rule not run this time: cannot judge usefulness
                elif not rule.applies_to(facts.path):
                    message = (
                        f"pragma disables {code} ({rule.name}) which cannot "
                        "fire in this file; remove it"
                    )
                elif (facts.path, line, code) not in used:
                    message = (
                        f"pragma disables {code} ({rule.name}) but suppresses "
                        "no finding; remove it"
                    )
                else:
                    continue
                kept.append(Violation(facts.path, line, 0, "WL009", message))
    return kept


# ---------------------------------------------------------------------------
# Core pipeline.


def _analyze(
    files: Sequence[Tuple[str, str]],
    select: Optional[Set[str]] = None,
) -> List[Violation]:
    all_facts = [extract_facts(source, path) for path, source in files]
    violations: List[Violation] = []
    for facts in all_facts:
        if facts.parse_error is not None:
            line, col, message = facts.parse_error
            violations.append(Violation(facts.path, line, col, PARSE_ERROR_CODE, message))
            continue
        for line, col, code, message in facts.violations:
            if select is None or code in select:
                violations.append(Violation(facts.path, line, col, code, message))
    parsed = sorted((f for f in all_facts if f.parse_error is None), key=lambda f: f.path)
    if select is None or "WL013" in select:
        violations.extend(_event_registry_findings(parsed))
    violations = _apply_pragmas(all_facts, violations, select)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code, v.message))
    return violations


# ---------------------------------------------------------------------------
# Public entry points.


def lint_source(source: str, path: str, select: Optional[Set[str]] = None) -> List[Violation]:
    """Lint one in-memory file (the registry joins see only it)."""
    return _analyze([(path.replace("\\", "/"), source)], select)


def lint_sources(sources: Dict[str, str], select: Optional[Set[str]] = None) -> List[Violation]:
    """Lint a set of in-memory files as one program (fixture helper)."""
    files = [(path.replace("\\", "/"), text) for path, text in sorted(sources.items())]
    return _analyze(files, select)


def lint_file(path: str, select: Optional[Set[str]] = None) -> List[Violation]:
    return lint_source(Path(path).read_text(encoding="utf-8"), str(path), select)


def lint_paths(
    paths: Sequence[str], select: Optional[Set[str]] = None
) -> Tuple[List[Violation], int]:
    """Lint files/directories; returns ``(violations, files_scanned)``."""
    files: List[Tuple[str, str]] = []
    for path in iter_python_files(paths):
        files.append((str(path).replace("\\", "/"), path.read_text(encoding="utf-8")))
    return _analyze(files, select), len(files)

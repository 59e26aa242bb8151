"""Per-file fact extraction: one AST pass per file.

The extractor is the data source for everything the engine does:

* **raw per-file violations** for the per-file rules (WL001-WL007,
  WL012), recorded pre-pragma so the engine can account pragma usage
  (WL009) and apply ``--select`` without re-parsing;
* **registry facts** for the WL013 cross-check the engine joins over
  every file — module-level ``EVENT_NAMES`` literals, obs emit sites,
  and event-shaped string literals;
* **pragmas**, parsed from raw source lines.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.wira_lint.rules import (
    EVENT_NAME_RE,
    GLOBAL_RANDOM_FUNCS,
    MERGE_FUNC_RE,
    REGISTRY_NAMES,
    RULES,
    SLOTS_REGISTRY,
    TIME_RATE_WORDS,
    WALL_CLOCK_DATETIME_FUNCS,
    WALL_CLOCK_TIME_FUNCS,
)

#: Trailing pragma: ``# wira-lint: disable=WL001,WL003``
#: Standalone file pragma: ``# wira-lint: disable-file=WL003``
PRAGMA_RE = re.compile(r"#\s*wira-lint:\s*disable(?P<scope>-file)?\s*=\s*(?P<codes>[A-Za-z0-9_, ]+)")

#: Code assigned to files the parser rejects; cannot be suppressed.
PARSE_ERROR_CODE = "WL000"

_SCREAMING_CASE_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

#: ``(line, scope, codes)`` with scope ``"line"`` or ``"file"``.
Pragma = Tuple[int, str, List[str]]


@dataclass
class FileFacts:
    """Everything the engine knows about one file."""

    path: str
    #: Module-level registry assignments: name -> string values.
    registries: Dict[str, Set[str]] = field(default_factory=dict)
    #: Line of the first assignment contributing to each registry.
    registry_lines: Dict[str, int] = field(default_factory=dict)
    #: Every ``category:event``-shaped string literal: ``(line, value)``.
    event_literals: List[Tuple[int, str]] = field(default_factory=list)
    #: Literal event names at ``emit``/``_emit`` call sites.
    emit_events: List[Tuple[int, str]] = field(default_factory=list)
    pragmas: List[Pragma] = field(default_factory=list)
    #: Raw zone-filtered per-file violations: ``(line, col, code, message)``.
    violations: List[Tuple[int, int, str, str]] = field(default_factory=list)
    #: ``(line, col, message)`` when the parser rejects the file.
    parse_error: Optional[Tuple[int, int, str]] = None


def parse_pragmas(source: str) -> List[Pragma]:
    """``(line, scope, codes)`` for every pragma comment in ``source``."""
    found: List[Pragma] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        codes = sorted({c.strip().upper() for c in match.group("codes").split(",") if c.strip()})
        scope = "file" if match.group("scope") else "line"
        if codes:
            found.append((lineno, scope, codes))
    return found


# ---------------------------------------------------------------------------
# Identifier heuristics (shared with the WL003 checker).


def _terminal_name(node: ast.expr) -> Optional[str]:
    """Innermost identifier of a Name/Attribute/Subscript chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _terminal_name(node.value)
    return None


def _is_time_rate_identifier(name: Optional[str]) -> bool:
    if not name:
        return False
    return bool(set(name.lower().split("_")) & TIME_RATE_WORDS)


def _dotted(node: ast.expr) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_infinity(node: ast.expr) -> bool:
    """``float("inf")`` / ``math.inf`` / their negations compare exactly."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_infinity(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        if len(node.args) == 1 and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            return isinstance(value, str) and "inf" in value.lower()
    dotted = _dotted(node)
    return dotted in ("math.inf", "math.nan")


def _string_values(node: ast.expr) -> Optional[List[str]]:
    """Literal string collection behind ``frozenset({...})``/tuples/etc."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("frozenset", "set", "tuple", "list") and len(node.args) == 1:
            return _string_values(node.args[0])
        return None
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values: List[str] = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                values.append(element.value)
            else:
                return None
        return values
    return None


# ---------------------------------------------------------------------------
# The extractor.


class _Extractor(ast.NodeVisitor):
    """One pass that records facts and raw per-file violations."""

    def __init__(self, facts: FileFacts, zone_active: Set[str]) -> None:
        self.facts = facts
        self.zone_active = zone_active
        #: Import tables: local name -> module, and -> (module, name).
        self._aliases: Dict[str, str] = {}
        self._from_imports: Dict[str, Tuple[str, str]] = {}
        #: Nesting depth of defs and classes (registries are module-level).
        self._scope_depth = 0
        #: Enclosing defs whose name marks a merge path (WL005).
        self._merge_depth = 0

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if code in self.zone_active:
            self.facts.violations.append(
                (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), code, message)
            )

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            self._aliases[alias.asname or root] = alias.name if alias.asname else root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self._from_imports[alias.asname or alias.name] = (node.module, alias.name)
        self.generic_visit(node)

    def _canonical(self, dotted: Optional[str]) -> Optional[str]:
        """Expand the head of a dotted chain through the import tables."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        if head in self._from_imports:
            module, orig = self._from_imports[head]
            expanded = f"{module}.{orig}"
        elif head in self._aliases:
            expanded = self._aliases[head]
        else:
            return None
        return f"{expanded}.{rest}" if rest else expanded

    # -- defs ----------------------------------------------------------

    def _visit_def(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._check_typed_def(node)
        merge = MERGE_FUNC_RE.search(node.name) is not None
        self._scope_depth += 1
        self._merge_depth += merge
        self.generic_visit(node)
        self._merge_depth -= merge
        self._scope_depth -= 1

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name in SLOTS_REGISTRY and not self._declares_slots(node):
            self._report(
                node,
                "WL004",
                f"hot-path class {node.name} must declare __slots__ "
                "(or use @dataclass(slots=True))",
            )
        self._scope_depth += 1
        self.generic_visit(node)
        self._scope_depth -= 1

    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call) and _terminal_name(decorator.func) == "dataclass":
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
        return False

    # -- registries (WL013) --------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_registry(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_registry([node.target], node.value)
        self.generic_visit(node)

    def _record_registry(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        if self._scope_depth:
            return
        for target in targets:
            if isinstance(target, ast.Name) and target.id in REGISTRY_NAMES:
                values = _string_values(value)
                if values is not None:
                    self.facts.registries.setdefault(target.id, set()).update(values)
                    self.facts.registry_lines.setdefault(target.id, target.lineno)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        canonical = self._canonical(func.id if isinstance(func, ast.Name) else _dotted(func))
        if canonical is not None:
            self._check_wall_clock(node, canonical)
            self._check_randomness(node, canonical)
            if canonical in ("os.environ.get", "os.getenv") and node.args:
                self._flag_environ(node, node.args[0])
        if isinstance(func, ast.Name) and func.id == "print":
            self._report(
                node,
                "WL007",
                "bare print() in library code; use logging or return a report",
            )
        self._check_emit(node)
        self.generic_visit(node)

    # -- WL001 / WL002 -------------------------------------------------

    def _check_wall_clock(self, node: ast.Call, canonical: str) -> None:
        parts = canonical.split(".")
        if parts[0] == "time" and len(parts) == 2 and parts[1] in WALL_CLOCK_TIME_FUNCS:
            self._report(
                node,
                "WL001",
                f"wall-clock read time.{parts[1]}(); simulation code must use EventLoop.now",
            )
        elif parts[0] == "datetime" and parts[-1] in WALL_CLOCK_DATETIME_FUNCS:
            self._report(
                node,
                "WL001",
                f"wall-clock read datetime {'.'.join(parts[1:])}(); "
                "simulation code must use EventLoop.now",
            )

    def _check_randomness(self, node: ast.Call, canonical: str) -> None:
        parts = canonical.split(".")
        if parts[0] != "random" or len(parts) != 2:
            return
        func = parts[1]
        if func in GLOBAL_RANDOM_FUNCS:
            self._report(
                node,
                "WL002",
                f"module-level random.{func}() uses the process-global RNG; "
                "take a seeded random.Random from the caller",
            )
        elif func == "Random":
            if not node.args and not node.keywords:
                self._report(
                    node,
                    "WL002",
                    "random.Random() without a seed is nondeterministic; "
                    "require a caller-supplied seeded instance",
                )
            elif len(node.args) == 1 and isinstance(node.args[0], ast.Constant):
                self._report(
                    node,
                    "WL002",
                    f"random.Random({node.args[0].value!r}) hard-codes the seed; "
                    "require an explicit rng (or pragma-document the fallback)",
                )

    # -- WL012: WIRA_* environment knobs -------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._canonical(_dotted(node.value)) == "os.environ":
            self._flag_environ(node, node.slice)
        self.generic_visit(node)

    def _flag_environ(self, node: ast.AST, key: ast.expr) -> None:
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and key.value.startswith("WIRA_")
        ):
            self._report(
                node,
                "WL012",
                f"direct os.environ read of {key.value}; WIRA_* knobs must flow "
                "through repro.runtime.settings.Settings",
            )

    # -- WL013 fact capture --------------------------------------------

    def _check_emit(self, node: ast.Call) -> None:
        if _terminal_name(node.func) not in ("emit", "_emit"):
            return
        for arg in node.args[:4]:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if EVENT_NAME_RE.match(arg.value):
                    self.facts.emit_events.append((node.lineno, arg.value))
                    return

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and EVENT_NAME_RE.match(node.value):
            self.facts.event_literals.append((node.lineno, node.value))

    # -- WL003 ---------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left] + list(node.comparators)
            if not any(_is_infinity(op) for op in operands):
                flagged = self._float_equality_operand(operands)
                if flagged is not None:
                    self._report(
                        node,
                        "WL003",
                        f"float equality on time/rate quantity {flagged!r}; "
                        "compare with a tolerance or restructure",
                    )
        self.generic_visit(node)

    @staticmethod
    def _float_equality_operand(operands: Sequence[ast.expr]) -> Optional[str]:
        # ALL_CAPS terminal identifiers are named constants (enum members,
        # wire tags, gain tables): comparing against them is exact by
        # construction, not an arithmetic float comparison.
        names = [
            name
            for name in (_terminal_name(op) for op in operands)
            if name is not None and not _SCREAMING_CASE_RE.match(name)
        ]
        has_float_literal = any(
            isinstance(op, ast.Constant) and isinstance(op.value, float) for op in operands
        )
        for name in names:
            if _is_time_rate_identifier(name):
                return name
        if has_float_literal and names:
            # ``x == 0.5``: a float literal against any identifier.
            return names[0]
        return None

    # -- WL005: dict-view iteration inside merge paths -----------------

    def visit_For(self, node: ast.For) -> None:
        self._check_dict_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_dict_iteration(node.iter)
        self.generic_visit(node)

    def _check_dict_iteration(self, iter_node: ast.expr) -> None:
        if not self._merge_depth:
            return
        for view_call in self._unsorted_dict_views(iter_node):
            func = view_call.func
            assert isinstance(func, ast.Attribute)
            base = _terminal_name(func.value) or "dict"
            self._report(
                view_call,
                "WL005",
                f"merge path iterates {base}.{func.attr}() in insertion order; "
                "merged shards differ -- iterate sorted(...) with an explicit key",
            )

    def _unsorted_dict_views(self, node: ast.expr) -> Iterator[ast.Call]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "sorted":
            return
        if isinstance(func, ast.Attribute) and func.attr in ("values", "items", "keys"):
            yield node
            return
        for arg in node.args:
            yield from self._unsorted_dict_views(arg)

    # -- WL006 ---------------------------------------------------------

    def _check_typed_def(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if "WL006" not in self.zone_active:
            return
        args = node.args
        missing: List[str] = []
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is None and arg.arg not in ("self", "cls"):
                missing.append(arg.arg)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if node.returns is None:
            missing.append("return type")
        if missing:
            self._report(
                node,
                "WL006",
                f"def {node.name} in a typed zone is missing annotations: "
                + ", ".join(missing),
            )


def zone_active_codes(path: str) -> Set[str]:
    """Rule codes whose zone covers ``path`` (select-independent)."""
    return {code for code, rule in RULES.items() if rule.applies_to(path)}


def extract_facts(source: str, path: str) -> FileFacts:
    """Parse ``source`` as ``path`` and extract all facts + raw findings."""
    norm = path.replace("\\", "/")
    facts = FileFacts(path=norm, pragmas=parse_pragmas(source))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        facts.parse_error = (exc.lineno or 0, exc.offset or 0, f"parse error: {exc.msg}")
        return facts
    _Extractor(facts, zone_active_codes(norm)).visit(tree)
    facts.violations.sort(key=lambda v: (v[0], v[1], v[2]))
    return facts

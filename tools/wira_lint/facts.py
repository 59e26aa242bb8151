"""Per-file fact extraction: one AST pass per file.

The extractor is the data source for *everything* the engine does:

* **raw per-file violations** for the single-file rules (WL001-WL004,
  WL006, WL007, WL012), recorded pre-pragma so the engine can
  account pragma usage (WL009) and apply ``--select`` without
  re-parsing;
* **facts** for the whole-program passes in :mod:`tools.wira_lint.graph`
  — functions with their call sites, wall-clock/RNG reads and dict-view
  iterations, classes with their member surface, import tables, contract
  registries (``EVENT_NAMES``/``INVARIANTS``/``KNOWN_KNOBS``), obs emit
  sites, sanitizer raise sites, and ``typing.cast`` expectation sites;
* **pragmas**, parsed from raw source lines.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from tools.wira_lint.rules import (
    EVENT_NAME_RE,
    GLOBAL_RANDOM_FUNCS,
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

#: Pseudo-function holding module-level statements' facts.
MODULE_SCOPE = "<module>"

_SCREAMING_CASE_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

#: Path segments after which the dotted module name starts (last match
#: wins, so ``/tmp/x/src/repro/...`` works like a checkout).
_SRC_ANCHOR = "src"
#: Path segments at which the dotted module name starts.
_ROOT_ANCHORS = ("tests", "tools", "examples", "benchmarks")


def module_name_for_path(path: str) -> str:
    """Dotted module name a file would import as, derived from its path."""
    segments = [part for part in path.replace("\\", "/").split("/") if part and part != "."]
    if segments and segments[-1].endswith(".py"):
        segments[-1] = segments[-1][: -len(".py")]
    if segments and segments[-1] == "__init__":
        segments = segments[:-1]
    if _SRC_ANCHOR in segments:
        start = len(segments) - 1 - segments[::-1].index(_SRC_ANCHOR) + 1
        tail = segments[start:]
    else:
        for anchor in _ROOT_ANCHORS:
            if anchor in segments:
                tail = segments[segments.index(anchor) :]
                break
        else:
            tail = segments[-1:]
    return ".".join(tail) if tail else (segments[-1] if segments else "")


# ---------------------------------------------------------------------------
# Fact records.  Plain-JSON-shaped so the cache can persist them.


@dataclass
class FunctionFacts:
    """One ``def`` (or the module pseudo-scope) and what it does."""

    qualname: str
    name: str
    line: int
    parent: Optional[str] = None
    cls: Optional[str] = None
    #: Ordered parameters as ``[name, annotation-terminal-or-None]``.
    params: List[List[Optional[str]]] = field(default_factory=list)
    #: Call sites: ``{"line", "kind", "target", "hint"}``
    #: where kind is one of ``name``/``dotted``/``self``/``method``.
    calls: List[Dict[str, Any]] = field(default_factory=list)
    #: Direct wall-clock reads: ``{"line", "what"}``.
    clock_reads: List[Dict[str, Any]] = field(default_factory=list)
    #: Direct process-global RNG uses: ``{"line", "what"}``.
    rng_reads: List[Dict[str, Any]] = field(default_factory=list)
    #: Unsorted dict-view iterations: ``{"line", "col", "base", "attr"}``.
    dict_iters: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class ClassFacts:
    name: str
    qualname: str
    line: int
    bases: List[str] = field(default_factory=list)
    members: List[str] = field(default_factory=list)


@dataclass
class FileFacts:
    """Everything the engine knows about one file."""

    path: str
    module: str
    module_aliases: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, List[str]] = field(default_factory=dict)
    functions: List[FunctionFacts] = field(default_factory=list)
    classes: List[ClassFacts] = field(default_factory=list)
    #: Module-level registry assignments: name -> sorted string values.
    registries: Dict[str, List[str]] = field(default_factory=dict)
    #: Line of the first assignment contributing to each registry.
    registry_lines: Dict[str, int] = field(default_factory=dict)
    #: Every ``category:event``-shaped string literal: ``[line, value]``.
    event_literals: List[List[Any]] = field(default_factory=list)
    #: Literal event names at ``emit``/``_emit`` call sites.
    emit_events: List[List[Any]] = field(default_factory=list)
    #: Literal invariant names at ``SanitizerError(...)`` sites.
    invariant_raises: List[List[Any]] = field(default_factory=list)
    #: Pragmas: ``[line, "line"|"file", [codes...]]``.
    pragmas: List[List[Any]] = field(default_factory=list)
    #: Raw zone-filtered per-file violations: ``[line, col, code, message]``.
    violations: List[List[Any]] = field(default_factory=list)
    parse_error: Optional[List[Any]] = None


def parse_pragmas(source: str) -> List[List[Any]]:
    """``[line, scope, codes]`` for every pragma comment in ``source``."""
    found: List[List[Any]] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        codes = sorted({c.strip().upper() for c in match.group("codes").split(",") if c.strip()})
        scope = "file" if match.group("scope") else "line"
        if codes:
            found.append([lineno, scope, codes])
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

    def __init__(self, path: str, facts: FileFacts, zone_active: Set[str]) -> None:
        self.path = path
        self.facts = facts
        self.zone_active = zone_active
        self._class_stack: List[str] = []
        #: Parallel stacks: function facts and local class-hint frames.
        self._func_stack: List[FunctionFacts] = []
        self._frame_stack: List[Dict[str, str]] = []
        self._module_scope = FunctionFacts(qualname=MODULE_SCOPE, name=MODULE_SCOPE, line=0)
        facts.functions.append(self._module_scope)

    # -- plumbing ------------------------------------------------------

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if code in self.zone_active:
            self.facts.violations.append(
                [getattr(node, "lineno", 0), getattr(node, "col_offset", 0), code, message]
            )

    def _current(self) -> FunctionFacts:
        return self._func_stack[-1] if self._func_stack else self._module_scope

    def _frame(self) -> Dict[str, str]:
        return self._frame_stack[-1] if self._frame_stack else {}

    def _qualprefix(self) -> str:
        parts = []
        if self._class_stack:
            parts.extend(self._class_stack)
        if self._func_stack:
            parts = self._func_stack[-1].qualname.split(".")
        return ".".join(parts)

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.facts.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname is None and "." in alias.name:
                # ``import a.b.c`` binds ``a``; attribute chains through
                # the full dotted path still resolve via the root entry.
                self.facts.module_aliases.setdefault(alias.name.split(".")[0], alias.name.split(".")[0])
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.facts.from_imports[alias.asname or alias.name] = [node.module, alias.name]
        self.generic_visit(node)

    def _canonical(self, dotted: Optional[str]) -> Optional[str]:
        """Expand the head of a dotted chain through the import tables."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.facts.from_imports:
            module, orig = self.facts.from_imports[head]
            expanded = f"{module}.{orig}"
        elif head in self.facts.module_aliases:
            expanded = self.facts.module_aliases[head]
        else:
            return None
        return f"{expanded}.{rest}" if rest else expanded

    # -- defs ----------------------------------------------------------

    def _enter_function(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._check_typed_def(node)
        prefix = self._qualprefix()
        qualname = f"{prefix}.{node.name}" if prefix else node.name
        params: List[List[Optional[str]]] = []
        frame: Dict[str, str] = {}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            annotation = _terminal_name(arg.annotation) if arg.annotation is not None else None
            if annotation is None and isinstance(arg.annotation, ast.Constant):
                # String annotations: ``loop: "EventLoop"``.
                value = arg.annotation.value
                if isinstance(value, str):
                    annotation = value.split("[")[0].split(".")[-1]
            params.append([arg.arg, annotation])
            if annotation:
                frame[arg.arg] = annotation
        if self._class_stack:
            frame.setdefault("self", self._class_stack[-1])
        record = FunctionFacts(
            qualname=qualname,
            name=node.name,
            line=node.lineno,
            parent=self._func_stack[-1].qualname if self._func_stack else None,
            cls=self._class_stack[-1] if self._class_stack else None,
            params=params,
        )
        self.facts.functions.append(record)
        self._func_stack.append(record)
        self._frame_stack.append(frame)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._func_stack.pop()
        self._frame_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)
        self.generic_visit(node)
        self._func_stack.pop()
        self._frame_stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name in SLOTS_REGISTRY and not self._declares_slots(node):
            self._report(
                node,
                "WL004",
                f"hot-path class {node.name} must declare __slots__ "
                "(or use @dataclass(slots=True))",
            )
        prefix = self._qualprefix()
        qualname = f"{prefix}.{node.name}" if prefix else node.name
        members: List[str] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.append(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        members.append(target.id)
                        if target.id == "__slots__":
                            slot_names = _string_values(stmt.value)
                            if slot_names:
                                members.extend(name.lstrip("_") for name in slot_names)
                                members.extend(slot_names)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                members.append(stmt.target.id)
        self.facts.classes.append(
            ClassFacts(
                name=node.name,
                qualname=qualname,
                line=node.lineno,
                bases=sorted({b for b in (_terminal_name(base) for base in node.bases) if b}),
                members=sorted(set(members)),
            )
        )
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

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

    # -- assignments: registries and local class hints -----------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_registry(node.targets, node.value)
        self._record_local_hint(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_registry([node.target], node.value)
            self._record_local_hint([node.target], node.value)
        if (
            self._func_stack
            and isinstance(node.target, ast.Name)
            and node.annotation is not None
        ):
            annotation = _terminal_name(node.annotation)
            if annotation:
                self._frame()[node.target.id] = annotation
        self.generic_visit(node)

    def _record_registry(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        if self._func_stack or self._class_stack:
            return
        for target in targets:
            if isinstance(target, ast.Name) and target.id in REGISTRY_NAMES:
                values = _string_values(value)
                if values is not None:
                    merged = set(self.facts.registries.get(target.id, [])) | set(values)
                    self.facts.registries[target.id] = sorted(merged)
                    self.facts.registry_lines.setdefault(target.id, target.lineno)

    def _record_local_hint(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        if not self._func_stack:
            return
        hint = self._class_hint(value)
        if hint is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self._frame()[target.id] = hint

    def _class_hint(self, node: ast.expr) -> Optional[str]:
        """Statically-apparent class of an expression, or None."""
        if isinstance(node, ast.Name):
            return self._frame().get(node.id)
        if isinstance(node, ast.Call):
            terminal = _terminal_name(node.func)
            if terminal == "cast" and len(node.args) == 2:
                return self._class_hint(node.args[1])
            if terminal and terminal[:1].isupper():
                return terminal
        return None

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        self._check_wall_clock(node)
        self._check_randomness(node)
        self._check_bare_print(node)
        self._check_environ_call(node)
        self._check_emit(node)
        self._check_sanitizer_raise(node)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        kind: Optional[str] = None
        target = ""
        hint: Optional[str] = None
        if isinstance(func, ast.Name):
            kind, target = "name", func.id
        elif isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                if head == "self" and rest:
                    kind, target = "self", rest
                elif head in self._frame() and rest and "." not in rest:
                    kind, target, hint = "method", rest, self._frame()[head]
                else:
                    kind, target = "dotted", dotted
            elif isinstance(func.value, ast.expr):
                value_hint = self._class_hint(func.value)
                if value_hint is not None:
                    kind, target, hint = "method", func.attr, value_hint
        if kind is None:
            return
        self._current().calls.append(
            {"line": node.lineno, "kind": kind, "target": target, "hint": hint}
        )

    # -- WL007 ---------------------------------------------------------

    def _check_bare_print(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self._report(
                node,
                "WL007",
                "bare print() in library code; use logging or return a report",
            )

    # -- WL001 / WL002 -------------------------------------------------

    def _resolved_callee(self, node: ast.Call) -> Optional[str]:
        """Canonical dotted target of a call through the import tables."""
        func = node.func
        if isinstance(func, ast.Name):
            return self._canonical(func.id)
        return self._canonical(_dotted(func))

    def _check_wall_clock(self, node: ast.Call) -> None:
        canonical = self._resolved_callee(node)
        if canonical is None:
            return
        parts = canonical.split(".")
        what: Optional[str] = None
        if parts[0] == "time" and len(parts) == 2 and parts[1] in WALL_CLOCK_TIME_FUNCS:
            what = canonical
            self._report(
                node,
                "WL001",
                f"wall-clock read time.{parts[1]}(); simulation code must use EventLoop.now",
            )
        elif parts[0] == "datetime" and parts[-1] in WALL_CLOCK_DATETIME_FUNCS:
            what = canonical
            self._report(
                node,
                "WL001",
                f"wall-clock read datetime {'.'.join(parts[1:])}(); "
                "simulation code must use EventLoop.now",
            )
        if what is not None:
            self._current().clock_reads.append({"line": node.lineno, "what": f"{what}()"})

    def _check_randomness(self, node: ast.Call) -> None:
        canonical = self._resolved_callee(node)
        if canonical is None:
            return
        parts = canonical.split(".")
        if parts[0] != "random" or len(parts) != 2:
            return
        func = parts[1]
        if func in GLOBAL_RANDOM_FUNCS:
            self._current().rng_reads.append({"line": node.lineno, "what": f"random.{func}()"})
            self._report(
                node,
                "WL002",
                f"module-level random.{func}() uses the process-global RNG; "
                "take a seeded random.Random from the caller",
            )
        elif func == "Random":
            if not node.args and not node.keywords:
                self._current().rng_reads.append(
                    {"line": node.lineno, "what": "random.Random()"}
                )
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

    def _environ_key(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def _check_environ_call(self, node: ast.Call) -> None:
        canonical = self._resolved_callee(node)
        if canonical not in ("os.environ.get", "os.getenv"):
            return
        key = self._environ_key(node.args[0]) if node.args else None
        self._flag_environ(node, key)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        canonical = self._canonical(_dotted(node.value))
        if canonical == "os.environ":
            self._flag_environ(node, self._environ_key(node.slice))
        self.generic_visit(node)

    def _flag_environ(self, node: ast.AST, key: Optional[str]) -> None:
        if key is not None and key.startswith("WIRA_"):
            self._report(
                node,
                "WL012",
                f"direct os.environ read of {key}; WIRA_* knobs must flow "
                "through repro.runtime.settings.Settings",
            )

    # -- WL013 / WL014 fact capture ------------------------------------

    def _check_emit(self, node: ast.Call) -> None:
        terminal = _terminal_name(node.func)
        if terminal not in ("emit", "_emit"):
            return
        for arg in node.args[:4]:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if EVENT_NAME_RE.match(arg.value):
                    self.facts.emit_events.append([node.lineno, arg.value])
                    return

    def _check_sanitizer_raise(self, node: ast.Call) -> None:
        if _terminal_name(node.func) != "SanitizerError" or not node.args:
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            self.facts.invariant_raises.append([node.lineno, first.value])

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

    # -- WL005 facts: dict-view iterations -----------------------------

    def visit_For(self, node: ast.For) -> None:
        self._record_dict_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._record_dict_iteration(node.iter)
        self.generic_visit(node)

    def _record_dict_iteration(self, iter_node: ast.expr) -> None:
        for view_call, sorted_ancestor in self._dict_view_calls(iter_node, False):
            if sorted_ancestor:
                continue
            func = view_call.func
            assert isinstance(func, ast.Attribute)
            self._current().dict_iters.append(
                {
                    "line": view_call.lineno,
                    "col": view_call.col_offset,
                    "base": _terminal_name(func.value),
                    "attr": func.attr,
                }
            )

    def _dict_view_calls(self, node: ast.expr, under_sorted: bool):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "sorted":
                for arg in node.args:
                    yield from self._dict_view_calls(arg, True)
                return
            if isinstance(func, ast.Attribute) and func.attr in ("values", "items", "keys"):
                yield node, under_sorted
                return
            for arg in node.args:
                yield from self._dict_view_calls(arg, under_sorted)

    # -- WL013 evidence: event-shaped literals -------------------------

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and EVENT_NAME_RE.match(node.value):
            self.facts.event_literals.append([node.lineno, node.value])

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
    """Per-file rule codes whose zone covers ``path`` (select-independent)."""
    norm = path.replace("\\", "/")
    return {
        code
        for code, rule in RULES.items()
        if not rule.whole_program and rule.applies_to(norm)
    }


def extract_facts(source: str, path: str) -> FileFacts:
    """Parse ``source`` as ``path`` and extract all facts + raw findings."""
    norm = path.replace("\\", "/")
    facts = FileFacts(path=norm, module=module_name_for_path(norm))
    facts.pragmas = parse_pragmas(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        facts.parse_error = [exc.lineno or 0, exc.offset or 0, f"parse error: {exc.msg}"]
        return facts
    extractor = _Extractor(norm, facts, zone_active_codes(norm))
    extractor.visit(tree)
    facts.violations.sort(key=lambda v: (v[0], v[1], v[2]))
    return facts

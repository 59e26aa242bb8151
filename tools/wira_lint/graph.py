"""Whole-program passes: symbol table, call graph, and cross-module rules.

:class:`Program` links the per-file :class:`~tools.wira_lint.facts.FileFacts`
into a project-wide view — module table, top-level function table, class
method tables with base-class closure, and an approximate call graph —
and then runs the rule families that cannot be decided file-by-file:

* **WL010 / WL011** — interprocedural wall-clock / global-RNG taint with
  a printed call-path witness (``f -> g -> time.time() [path:line]``);
* **WL005** — dict-view iteration order flowing into merge paths, now
  followed one call level deep instead of matching names only;
* **WL013 / WL014** — obs event names and sanitizer invariant names
  cross-checked against their contract registries, both directions.

All passes produce plain ``(path, line, col, code, message)`` tuples;
pragma suppression and baseline filtering happen in the engine.

Resolution is intentionally *approximate*: a call site that cannot be
statically resolved produces no edge (never a spurious one), so every
finding reported here is backed by an actual witness chain — the cost is
that dynamically-dispatched calls are invisible to the taint passes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.wira_lint.facts import MODULE_SCOPE, FileFacts, FunctionFacts
from tools.wira_lint.rules import MERGE_FUNC_RE, RULES

Finding = Tuple[str, int, int, str, str]

#: Pragma codes that vet a direct clock/RNG read: a read suppressed under
#: any of these does not seed the corresponding taint pass (the pragma is
#: an explicit human sign-off on that exact read).
_CLOCK_VETO = frozenset({"WL001", "WL010"})
_RNG_VETO = frozenset({"WL002", "WL011"})


class Program:
    """Cross-module view over a set of extracted file facts."""

    def __init__(self, all_facts: Sequence[FileFacts]) -> None:
        self.files: List[FileFacts] = sorted(all_facts, key=lambda f: f.path)
        #: module name -> facts (first file per module in path order wins).
        self.modules: Dict[str, FileFacts] = {}
        #: fid "module:qualname" -> (file facts, function facts).
        self.functions: Dict[str, Tuple[FileFacts, FunctionFacts]] = {}
        #: module -> {top-level function name -> fid}.
        self.top_level: Dict[str, Dict[str, str]] = {}
        #: (class name, method name) -> sorted fids.
        self.methods: Dict[Tuple[str, str], List[str]] = {}
        #: class name -> union of base-class terminal names.
        self.class_bases: Dict[str, Set[str]] = {}
        #: caller fid -> {callee fid: first call line}.
        self.edges: Dict[str, Dict[str, int]] = {}
        #: callee fid -> {caller fid: first call line}.
        self.redges: Dict[str, Dict[str, int]] = {}
        self._index()
        self._link()

    # -- construction --------------------------------------------------

    def _index(self) -> None:
        for facts in self.files:
            self.modules.setdefault(facts.module, facts)
        for facts in self.files:
            if self.modules[facts.module] is not facts:
                continue  # duplicate module name: first path wins
            top: Dict[str, str] = {}
            for fn in facts.functions:
                fid = f"{facts.module}:{fn.qualname}"
                self.functions[fid] = (facts, fn)
                if fn.parent is None and fn.cls is None and fn.qualname == fn.name:
                    top[fn.name] = fid
                if fn.cls is not None:
                    self.methods.setdefault((fn.cls, fn.name), []).append(fid)
            self.top_level[facts.module] = top
            for cls in facts.classes:
                self.class_bases.setdefault(cls.name, set()).update(cls.bases)
        for fids in self.methods.values():
            fids.sort()

    def _canonical(self, facts: FileFacts, dotted: str) -> Optional[str]:
        head, _, rest = dotted.partition(".")
        if head in facts.from_imports:
            module, orig = facts.from_imports[head]
            expanded = f"{module}.{orig}"
        elif head in facts.module_aliases:
            expanded = facts.module_aliases[head]
        else:
            return None
        return f"{expanded}.{rest}" if rest else expanded

    def _function_in_module(self, module: str, qualname: str) -> Optional[str]:
        fid = f"{module}:{qualname}"
        if fid in self.functions:
            return fid
        ctor = f"{module}:{qualname}.__init__"
        return ctor if ctor in self.functions else None

    def _resolve_dotted(self, facts: FileFacts, dotted: str) -> List[str]:
        canonical = self._canonical(facts, dotted) or dotted
        parts = canonical.split(".")
        # Longest module prefix wins: "repro.simnet.engine.EventLoop.post_at"
        # resolves module "repro.simnet.engine", qualname "EventLoop.post_at".
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            if module in self.modules:
                fid = self._function_in_module(module, ".".join(parts[split:]))
                return [fid] if fid else []
        return []

    def _resolve_method(self, cls: Optional[str], name: str) -> List[str]:
        if cls is None:
            return []
        seen: Set[str] = set()
        queue = deque([cls])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            fids = self.methods.get((current, name))
            if fids:
                return list(fids)
            queue.extend(sorted(self.class_bases.get(current, ())))
        return []

    def resolve_call(self, facts: FileFacts, caller: FunctionFacts, call: Dict) -> List[str]:
        kind, target = call["kind"], call["target"]
        if kind == "name":
            fid = self.top_level.get(facts.module, {}).get(target)
            if fid is not None:
                return [fid]
            imported = facts.from_imports.get(target)
            if imported is not None:
                module, orig = imported
                fid = self._function_in_module(module, orig)
                if fid is not None:
                    return [fid]
                if not any(m == module or m.startswith(module + ".") for m in self.modules):
                    # Known to come from a module outside the scanned
                    # program (e.g. pathlib.Path): never guess by class
                    # name — a same-named scanned class is a different type.
                    return []
                return self._resolve_method(orig, "__init__") if orig[:1].isupper() else []
            if target[:1].isupper():
                return self._resolve_method(target, "__init__")
            return []
        if kind == "dotted":
            return self._resolve_dotted(facts, target)
        if kind == "self":
            if "." in target:
                return []
            return self._resolve_method(caller.cls, target)
        if kind == "method":
            return self._resolve_method(call.get("hint"), target)
        return []

    def _link(self) -> None:
        for fid, (facts, fn) in sorted(self.functions.items()):
            out = self.edges.setdefault(fid, {})
            for call in fn.calls:
                for callee in self.resolve_call(facts, fn, call):
                    if callee == fid:
                        continue
                    line = int(call["line"])
                    if callee not in out or line < out[callee]:
                        out[callee] = line
                    back = self.redges.setdefault(callee, {})
                    if fid not in back or line < back[fid]:
                        back[fid] = line

    # -- pragma helpers ------------------------------------------------

    @staticmethod
    def _vetoed_lines(facts: FileFacts, veto: frozenset) -> Tuple[Set[int], bool]:
        """Lines (and whether the whole file) carry a vetoing pragma."""
        lines: Set[int] = set()
        file_wide = False
        for line, scope, codes in facts.pragmas:
            if not veto.intersection(codes):
                continue
            if scope == "file":
                file_wide = True
            else:
                lines.add(int(line))
        return lines, file_wide

    # -- WL010 / WL011: interprocedural taint --------------------------

    def _taint_findings(
        self, code: str, reads_attr: str, veto: frozenset, per_file_code: str, noun: str
    ) -> List[Finding]:
        rule = RULES[code]
        per_file_rule = RULES[per_file_code]
        # Seed set: direct reads not vetoed by a pragma.
        taint: Dict[str, Dict] = {}
        for fid in sorted(self.functions):
            facts, fn = self.functions[fid]
            vetoed, file_wide = self._vetoed_lines(facts, veto)
            if file_wide:
                continue
            reads = [r for r in getattr(fn, reads_attr) if int(r["line"]) not in vetoed]
            if reads:
                read = min(reads, key=lambda r: int(r["line"]))
                taint[fid] = {
                    "next": None,
                    "call_line": None,
                    "read": (facts.path, int(read["line"]), read["what"]),
                }
        # Reverse BFS: a caller of a tainted function is tainted.  Sorted
        # wave processing keeps witness choice deterministic.
        frontier = sorted(taint)
        while frontier:
            next_frontier: List[str] = []
            for fid in frontier:
                for caller, line in sorted(self.redges.get(fid, {}).items()):
                    if caller in taint:
                        continue
                    taint[caller] = {
                        "next": fid,
                        "call_line": line,
                        "read": taint[fid]["read"],
                    }
                    next_frontier.append(caller)
            frontier = sorted(next_frontier)
        self._taint_map = taint

        findings: List[Finding] = []
        for fid in sorted(taint):
            facts, fn = self.functions[fid]
            if not rule.applies_to(facts.path):
                continue
            info = taint[fid]
            if info["next"] is None:
                # Direct read: WL001/WL002 already covers it inside the
                # sim zone; the taint rule reports it only where the
                # per-file rule does not reach (media/cdn).
                if per_file_rule.applies_to(facts.path):
                    continue
                path, line, what = info["read"]
                findings.append(
                    (
                        facts.path,
                        line,
                        0,
                        code,
                        f"{fn.qualname}() reads {noun}: {what} [{path}:{line}]",
                    )
                )
                continue
            next_facts, _ = self.functions[info["next"]]
            if rule.applies_to(next_facts.path):
                # The callee is itself in the replay zone: it carries the
                # finding (or a vetting pragma); do not cascade upward.
                continue
            witness = self._witness(fid)
            findings.append(
                (
                    facts.path,
                    int(info["call_line"]),
                    0,
                    code,
                    f"{fn.qualname}() transitively reads {noun} via: {witness}",
                )
            )
        return findings

    def _witness(self, fid: str) -> str:
        parts: List[str] = []
        current: Optional[str] = fid
        guard = 0
        while current is not None and guard < 64:
            facts, fn = self.functions[current]
            parts.append(f"{facts.module}.{fn.qualname}" if fn.qualname != MODULE_SCOPE else facts.module)
            info = self._taint_map.get(current) if hasattr(self, "_taint_map") else None
            if info is None:
                break
            if info["next"] is None:
                path, line, what = info["read"]
                parts.append(f"{what} [{path}:{line}]")
                break
            current = info["next"]
            guard += 1
        return " -> ".join(parts)

    def wall_clock_taint(self) -> List[Finding]:
        return self._taint_findings("WL010", "clock_reads", _CLOCK_VETO, "WL001", "the wall clock")

    def global_rng_taint(self) -> List[Finding]:
        return self._taint_findings("WL011", "rng_reads", _RNG_VETO, "WL002", "the process-global RNG")

    # -- WL005: merge-path dict iteration ------------------------------

    def _merge_context(self, fid: str) -> Optional[str]:
        """Qualname of the merge function enclosing ``fid``, if any."""
        facts, fn = self.functions[fid]
        current: Optional[FunctionFacts] = fn
        while current is not None:
            if MERGE_FUNC_RE.search(current.name):
                return current.qualname
            parent = current.parent
            current = self.functions.get(f"{facts.module}:{parent}")[1] if (
                parent is not None and f"{facts.module}:{parent}" in self.functions
            ) else None
        return None

    def merge_order_findings(self) -> List[Finding]:
        rule = RULES["WL005"]
        findings: List[Finding] = []
        seen: Set[Tuple[str, int, int]] = set()
        for fid in sorted(self.functions):
            facts, fn = self.functions[fid]
            if not fn.dict_iters or not rule.applies_to(facts.path):
                continue
            context = self._merge_context(fid)
            caller_context: Optional[str] = None
            if context is None:
                for caller in sorted(self.redges.get(fid, {})):
                    caller_facts, caller_fn = self.functions[caller]
                    if MERGE_FUNC_RE.search(caller_fn.name):
                        caller_context = f"{caller_facts.module}.{caller_fn.qualname}"
                        break
            if context is None and caller_context is None:
                continue
            for it in fn.dict_iters:
                key = (facts.path, int(it["line"]), int(it["col"]))
                if key in seen:
                    continue
                seen.add(key)
                base = it["base"] or "dict"
                if context is not None:
                    message = (
                        f"merge path iterates {base}.{it['attr']}() in insertion "
                        "order; merged shards differ -- iterate sorted(...) with "
                        "an explicit key"
                    )
                else:
                    message = (
                        f"{fn.qualname}() iterates {base}.{it['attr']}() in "
                        f"insertion order and feeds merge path {caller_context}(); "
                        "iterate sorted(...) with an explicit key"
                    )
                findings.append((facts.path, int(it["line"]), int(it["col"]), "WL005", message))
        return findings

    # -- WL013 / WL014: contract registries ----------------------------

    def _registry(self, name: str) -> Tuple[Set[str], List[FileFacts]]:
        values: Set[str] = set()
        defining: List[FileFacts] = []
        for facts in self.files:
            if name in facts.registries:
                values.update(facts.registries[name])
                defining.append(facts)
        return values, defining

    def event_registry_findings(self) -> List[Finding]:
        rule = RULES["WL013"]
        registry, defining = self._registry("EVENT_NAMES")
        if not defining:
            return []
        findings: List[Finding] = []
        emitted: Set[str] = set()
        for facts in self.files:
            for line, name in facts.emit_events:
                emitted.add(name)
                if name not in registry and rule.applies_to(facts.path):
                    findings.append(
                        (
                            facts.path,
                            int(line),
                            0,
                            "WL013",
                            f"emitted event name '{name}' is not registered in "
                            "events.EVENT_NAMES",
                        )
                    )
        if not emitted:
            # No emit site in scope (e.g. linting the registry module by
            # itself): the reverse direction would flag every name.
            return findings
        defining_paths = {facts.path for facts in defining}
        for name in sorted(registry):
            if name in emitted:
                continue
            if self._literal_evidence(name, defining_paths):
                continue
            anchor = defining[0]
            if not rule.applies_to(anchor.path):
                continue
            line = next(
                (int(l) for l, value in anchor.event_literals if value == name),
                anchor.registry_lines.get("EVENT_NAMES", 1),
            )
            findings.append(
                (
                    anchor.path,
                    line,
                    0,
                    "WL013",
                    f"EVENT_NAMES registers '{name}' but no scanned code emits "
                    "or references it",
                )
            )
        return findings

    def _literal_evidence(self, name: str, defining_paths: Set[str]) -> bool:
        """True when ``name`` appears as a literal outside its registry
        definition (covers dynamically-selected emit names such as
        ``name = "fault:link_down" if down else "fault:link_up"``)."""
        for facts in self.files:
            hits = sum(1 for _, value in facts.event_literals if value == name)
            if facts.path in defining_paths:
                if hits > 1:
                    return True
            elif hits:
                return True
        return False

    def invariant_registry_findings(self) -> List[Finding]:
        rule = RULES["WL014"]
        registry, defining = self._registry("INVARIANTS")
        if not defining:
            return []
        findings: List[Finding] = []
        raised: Set[str] = set()
        for facts in self.files:
            for line, name in facts.invariant_raises:
                raised.add(name)
                if name not in registry and rule.applies_to(facts.path):
                    findings.append(
                        (
                            facts.path,
                            int(line),
                            0,
                            "WL014",
                            f"SanitizerError raised with invariant '{name}' which is "
                            "not registered in INVARIANTS",
                        )
                    )
        if not raised:
            return findings
        for name in sorted(registry - raised):
            anchor = defining[0]
            if not rule.applies_to(anchor.path):
                continue
            findings.append(
                (
                    anchor.path,
                    anchor.registry_lines.get("INVARIANTS", 1),
                    0,
                    "WL014",
                    f"INVARIANTS registers '{name}' but no scanned code raises "
                    "SanitizerError with it",
                )
            )
        return findings

    # -- entry point ---------------------------------------------------

    def findings(self, select: Optional[Set[str]] = None) -> List[Finding]:
        """All whole-program findings, optionally filtered by ``select``."""
        passes = {
            "WL005": self.merge_order_findings,
            "WL010": self.wall_clock_taint,
            "WL011": self.global_rng_taint,
            "WL013": self.event_registry_findings,
            "WL014": self.invariant_registry_findings,
        }
        results: List[Finding] = []
        for code in sorted(passes):
            if select is not None and code not in select:
                continue
            results.extend(passes[code]())
        return results

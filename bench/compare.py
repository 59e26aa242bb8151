"""Set two result files side by side: end-to-end verdicts, ledger delta.

``python -m bench compare A.json B.json`` reads two files written by
``bench run --json`` (optionally ``--with-trace``) and prints, per
workload, each end-to-end metric with both medians, the ratio B/A with
its base, and a verdict against the bound ``BENCHMARK.json`` fixes:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  it is not, but either side's run-to-run range is wider
                than the bound, so "no worse" cannot be told from noise;
``unchanged``   neither.

Each line ends with the wider of the two sides' run-to-run ranges, as a
share of the median: a loss inside the bound but several ranges wide is
not noise, and is for alternating pairs to settle.

No verdict says "improved": a gain is claimed by the rule in the README
(ten alternating pairs, nine wins), not by one comparison.  Where both
files carry a traced run, the per-layer ledger follows — the "QUIC codec
−31 %, total +18 %" table — each row with its base.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Tuple

from bench import ROOT

REGRESSED = "regressed"
UNRESOLVED = "unresolved"
UNCHANGED = "unchanged"


def load_declaration() -> Dict[str, object]:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_spec() -> Dict[str, Dict[str, object]]:
    return {m["name"]: m for m in load_declaration()["end_to_end"]}  # type: ignore[index,union-attr]


def verdict(
    base: Mapping[str, float], other: Mapping[str, float], better: str, bound: float
) -> Tuple[str, float, float]:
    """Verdict for one metric, by how much ``other`` is worse (share of base),
    and the wider of the two run-to-run ranges (share of that side's median)."""
    a, b = base["median"], other["median"]
    worse_by = (a - b) / a if better == "higher" else (b - a) / a
    spread = max((s["max"] - s["min"]) / s["median"] for s in (base, other))
    if worse_by > bound:
        return REGRESSED, worse_by, spread
    if spread > bound:
        return UNRESOLVED, worse_by, spread
    return UNCHANGED, worse_by, spread


def compare_workloads(
    a: Mapping[str, Mapping[str, object]],
    b: Mapping[str, Mapping[str, object]],
    label_a: str = "A",
    label_b: str = "B",
) -> Tuple[List[str], List[str]]:
    """Lines to print, and ``workload/metric`` names that regressed."""
    spec = end_to_end_spec()
    lines: List[str] = []
    regressed: List[str] = []
    for workload in a:
        if workload not in b:
            lines.append(f"{workload}: only in {label_a}")
            continue
        lines.append(f"{workload}")
        metrics_a: Mapping[str, Mapping[str, float]] = a[workload]["metrics"]  # type: ignore[assignment]
        metrics_b: Mapping[str, Mapping[str, float]] = b[workload]["metrics"]  # type: ignore[assignment]
        for name, declared in spec.items():
            if name not in metrics_a or name not in metrics_b:
                continue
            bound = float(declared["bound"])  # type: ignore[arg-type]
            result, worse_by, spread = verdict(
                metrics_a[name], metrics_b[name], str(declared["better"]), bound
            )
            if result == REGRESSED:
                regressed.append(f"{workload}/{name}")
            ma, mb = metrics_a[name], metrics_b[name]
            lines.append(
                f"  {name:<20} {label_a} {ma['median']:>10.4g}  {label_b} {mb['median']:>10.4g} "
                f"{declared['unit']:<10} {label_b}/{label_a} = {mb['median'] / ma['median']:.3f} "
                f"(base {ma['median']:.4g}, n={int(ma['n'])}+{int(mb['n'])})  "
                f"{result} (worse by {100 * worse_by:+.1f} %, bound {100 * bound:.0f} %, "
                f"run-to-run range {100 * spread:.1f} %)"
            )
        digest_a, digest_b = a[workload].get("outcome_digest"), b[workload].get("outcome_digest")
        if digest_a is not None and digest_a != digest_b:
            lines.append(
                "  outcome_digest differs: simulated outcomes changed between the two sides"
            )
    return lines, regressed


def compare_ledgers(
    a: Mapping[str, Mapping[str, float]], b: Mapping[str, Mapping[str, float]]
) -> List[str]:
    """The per-layer ledger delta, for workloads both sides traced."""
    lines: List[str] = []
    for workload in a:
        if workload not in b:
            continue
        lines.append(f"{workload}: host self time per session, ms (traced slice)")
        total_a = a[workload].get("trace.ledger_total_ms", 0.0)
        total_b = b[workload].get("trace.ledger_total_ms", 0.0)
        rows = [
            (name, a[workload][name], b[workload].get(name, 0.0))
            for name in a[workload]
            if name.endswith(".self_ms") or name == "host.idle_ms"
        ]
        rows.append(("total", total_a, total_b))
        for name, va, vb in rows:
            if va == 0.0 and vb == 0.0:
                continue
            change = f"{100 * (vb - va) / va:+6.1f} %" if va else "    new"
            share = 100 * va / total_a if total_a else 0.0
            lines.append(
                f"  {name:<24} A {va:>9.4f}  B {vb:>9.4f}  {change}  "
                f"(base {va:.4f} ms, {share:.1f} % of A)"
            )
    return lines


def compare_files(path_a: str, path_b: str) -> Tuple[List[str], List[str]]:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    lines = [f"A = {path_a}", f"B = {path_b}"]
    if a.get("machine") != b.get("machine"):
        lines.append(f"different machines: A {a.get('machine')}  B {b.get('machine')}")
    body, regressed = compare_workloads(a.get("workloads", {}), b.get("workloads", {}))
    lines += body
    if a.get("trace") and b.get("trace"):
        lines += compare_ledgers(a["trace"], b["trace"])
    return lines, regressed

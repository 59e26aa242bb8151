"""Graceful-degradation gates: scheme × fault × schedule matrix.

§IV-C's safety claim is behavioural: whatever happens to the cookie, the
parser or the path, Wira must *degrade* — never fail, and never fall
meaningfully behind the baseline it is supposed to improve on.  This
module turns that claim into an executable gate:

* every cell of the (scheme × fault × adverse-schedule) matrix is a
  two-session chain on the simulator — the first session primes the
  client's cookie store, the second carries the fault and the adverse
  schedule, so cookie faults hit a *real* echoed cookie;
* the priming session is clean and depends only on ``(scheme, seed)``,
  so a *row* — all cells of one ``(scheme, seed)`` — simulates it once
  (:func:`prime_chain`) and every cell of the row measures from its own
  copy of the primed cookie store and manager;
* **completion gate** — every session of every cell must complete;
* **degradation gate** — for each (fault, schedule) cell, Wira's mean
  FFCT across the seed set must stay within ``ffct_ratio_bound`` of
  BASELINE's under the *same* fault, schedule and seeds.

Rows are independent, so the matrix runs as one task per (scheme, seed)
row through :func:`repro.runtime.pool.run_tasks`, the executor the
deployment replay uses (``--jobs`` / ``WIRA_JOBS``), with results placed
back in deterministic cell order — a parallel run is bit-identical to a
serial one, and whatever a failed pool left undone finishes in-process.
The row is therefore the grain of ``--jobs``: the default matrix is 14
tasks and ``--quick`` is 5, however many cells each holds.

CLI::

    python -m repro.experiments.robustness [--quick] [--jobs N]
        [--bound 1.5] [--output report.json]

exits non-zero when a gate fails and writes a JSON gate report suitable
for CI artifact upload.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdn.origin import Origin
from repro.cdn.session import SessionSpec, StreamingSession
from repro.core.schemes import BASELINE, WIRA, WIRA_FF, WIRA_HX, SchemeLike, SchemeSpec, as_spec
from repro.core.transport_cookie import ClientCookieStore, ServerCookieManager
from repro.faults import FaultPlan, single_fault_plans
from repro.media.source import StreamProfile
from repro.runtime.pool import resolve_jobs, run_tasks
from repro.simnet.path import NetworkConditions
from repro.simnet.schedule import GilbertElliott, OutageWindow, PathSchedule
from repro.simnet.trace import ConditionTrace, TracePoint

COOKIE_KEY = b"wira-robustness-cookie-key-32b!!"

#: Simulated-seconds gap between the priming and the measured session —
#: short enough that the primed cookie is always fresh.
SESSION_GAP = 5.0

#: Testbed-like base path (§II footnote 2, without the Bernoulli loss:
#: the adverse schedules supply the loss regimes under test).
DEFAULT_CONDITIONS = NetworkConditions(
    bandwidth_bps=8_000_000.0, rtt=0.050, loss_rate=0.0, buffer_bytes=25_000
)

MATRIX_SCHEMES: Tuple[SchemeLike, ...] = (
    BASELINE,
    WIRA_FF,
    WIRA_HX,
    WIRA,
    as_spec("adaptive"),
    as_spec("wira_bbr2"),
    as_spec("wira_ar"),
)

#: Per-schedule degradation-bound overrides (effective bound is the max
#: of ``ffct_ratio_bound`` and the override).  A total mid-transfer outage
#: punishes whichever sender had the most in flight when the link cut —
#: on these paths the baseline can slide under the outage by sheer
#: slowness while Wira's front-loaded burst is eaten and must wait out
#: PTO recovery.  That asymmetry is a property of the scenario, not a
#: Wira defect, so the outage schedules only gate against unbounded
#: stalls rather than against losing the head start.
SCHEDULE_BOUND_OVERRIDES: Dict[str, float] = {"flap": 8.0, "surge_flap": 8.0}

#: Per-fault overrides, same max-combination rule.  An adversarial
#: FF_Size of 0/1 byte collapses the initial window to the RFC 6928
#: floor (``WiraConfig.min_initial_cwnd_packets``) — and for Wira(FF),
#: whose pacing is ``init_cwnd / init_RTT``, the rate with it — so the
#: FF-trusting schemes degrade to a stock-kernel slow start while the
#: baseline keeps its experiential window.  A multi-MB FF_Size is
#: clamped by ``max_initial_cwnd_bytes`` but still overruns the
#: bottleneck buffer and pays retransmissions.  Both are constant-factor
#: costs by construction; the bounds check the floors/ceilings are
#: doing their job (without them these cells are 3–6× or unbounded).
FAULT_BOUND_OVERRIDES: Dict[str, float] = {
    "ff_size_zero": 4.0,
    "ff_size_tiny": 4.0,
    "ff_size_huge": 2.5,
}


def build_schedules(
    conditions: NetworkConditions,
) -> Dict[str, Optional[PathSchedule]]:
    """The adverse-path schedule set, anchored to ``conditions``.

    Each schedule targets one degradation mode a stale or adversarial
    cookie makes dangerous: a bandwidth collapse (the historical MaxBW
    overshoots), a surge (it undershoots), bursty Gilbert–Elliott loss,
    reordering/duplication, and a mid-handshake link flap.
    """
    collapse = conditions.scaled(bandwidth_factor=0.25)
    surge = conditions.scaled(bandwidth_factor=4.0)
    return {
        "steady": None,
        "bw_collapse": PathSchedule(
            trace=ConditionTrace(
                [TracePoint(0.0, conditions), TracePoint(0.05, collapse)]
            )
        ),
        "bw_surge": PathSchedule(
            trace=ConditionTrace(
                [TracePoint(0.0, collapse), TracePoint(0.05, conditions)]
            )
        ),
        "bursty_ge": PathSchedule(
            gilbert_elliott=GilbertElliott(
                p_good_to_bad=0.02, p_bad_to_good=0.3, loss_bad=0.5
            )
        ),
        "reorder_dup": PathSchedule(
            reorder_rate=0.10, reorder_delay=0.02, duplicate_rate=0.05
        ),
        "flap": PathSchedule(outages=(OutageWindow(start=0.05, duration=0.1),)),
        "surge_flap": PathSchedule(
            trace=ConditionTrace(
                [TracePoint(0.0, collapse), TracePoint(0.08, conditions)]
            ),
            outages=(OutageWindow(start=0.03, duration=0.05),),
        ),
    }


def fault_plan_matrix() -> Dict[str, Optional[FaultPlan]]:
    """Fault axis: every single-fault plan plus the no-fault control."""
    plans: Dict[str, Optional[FaultPlan]] = {"none": None}
    plans.update(single_fault_plans())
    return plans


@dataclass(frozen=True)
class RobustnessConfig:
    """Scale and gate knobs for one matrix run."""

    seeds: Tuple[int, ...] = (7, 19)
    schemes: Tuple[SchemeLike, ...] = MATRIX_SCHEMES
    schedule_names: Optional[Tuple[str, ...]] = None  # None = all
    fault_names: Optional[Tuple[str, ...]] = None  # None = all
    conditions: NetworkConditions = DEFAULT_CONDITIONS
    #: Degradation gate: mean(FFCT scheme) ≤ bound × mean(FFCT BASELINE)
    #: under the same fault/schedule/seeds.
    ffct_ratio_bound: float = 1.5
    stream_seed: int = 17
    timeout: float = 30.0

    @classmethod
    def quick(cls) -> "RobustnessConfig":
        """Reduced scale for CI: one seed, four schedules, five schemes —
        ``baseline``, ``wira``, ``adaptive``, ``wira_bbr2``, ``wira_ar``."""
        return cls(
            seeds=(7,),
            schemes=(
                BASELINE,
                WIRA,
                as_spec("adaptive"),
                as_spec("wira_bbr2"),
                as_spec("wira_ar"),
            ),
            schedule_names=("steady", "bw_collapse", "bursty_ge", "flap"),
        )


#: One matrix coordinate: (scheme, fault name, schedule name, seed).
Cell = Tuple[SchemeSpec, str, str, int]


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell's two-session chain."""

    scheme: SchemeSpec
    fault: str
    schedule: str
    seed: int
    primed_completed: bool
    completed: bool
    ffct: Optional[float]
    used_cookie: bool
    fault_summary: Optional[Dict[str, int]]

    def to_json(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme.value,
            "fault": self.fault,
            "schedule": self.schedule,
            "seed": self.seed,
            "primed_completed": self.primed_completed,
            "completed": self.completed,
            "ffct": self.ffct,
            "used_cookie": self.used_cookie,
            "fault_summary": self.fault_summary,
        }


@dataclass(frozen=True)
class PrimedChain:
    """What the clean priming session of one (scheme, seed) leaves behind.

    ``store`` and ``manager`` are the originals the priming session wrote
    into; no later session may run on them — a cell measures from
    :meth:`cell_state`.  ``origin`` is safe to share: its source is a
    pure memo of the stream seed.
    """

    completed: bool
    store: ClientCookieStore
    manager: ServerCookieManager
    origin: Origin

    def cell_state(self) -> Tuple[ClientCookieStore, ServerCookieManager]:
        """A private copy of the primed pair: whatever a cell's fault or
        measured session writes (a pushed cookie, the nonce counter, the
        rejection counts) stays in that cell."""
        return copy.deepcopy((self.store, self.manager))


def prime_chain(
    scheme: SchemeSpec, seed: int, config: RobustnessConfig
) -> PrimedChain:
    """Run the clean priming session every cell of a (scheme, seed) shares."""
    origin = Origin()
    origin.add_stream("stream", StreamProfile(seed=config.stream_seed))
    store = ClientCookieStore()
    manager = ServerCookieManager(COOKIE_KEY)
    spec = SessionSpec(
        conditions=config.conditions,
        scheme=scheme,
        epoch=0.0,
        seed=seed,
        timeout=config.timeout,
        trace_label=f"rb-{scheme.value}-s{seed}-prime",
    )
    primed = StreamingSession(
        spec, origin, "stream", cookie_store=store, cookie_manager=manager
    ).run()
    # WiraClient.close() unhooks its eviction observer; one left behind
    # would drag the finished session into every cell's copy.
    assert store._on_evict is None
    return PrimedChain(primed.completed, store, manager, origin)


def run_cell(
    scheme: SchemeSpec,
    fault_name: str,
    plan: Optional[FaultPlan],
    schedule_name: str,
    schedule: Optional[PathSchedule],
    seed: int,
    config: RobustnessConfig,
    primed: Optional[PrimedChain] = None,
) -> CellResult:
    """Two-session chain: prime the cookie clean, then measure faulted.

    ``primed`` is the row's shared priming (:func:`run_row`); without it
    the cell primes for itself.  Either way the outcome is the same.
    """
    if primed is None:
        primed = prime_chain(scheme, seed, config)
    store, manager = primed.cell_state()
    measured_spec = SessionSpec(
        conditions=config.conditions,
        scheme=scheme,
        epoch=SESSION_GAP,
        seed=seed + 1,
        timeout=config.timeout,
        schedule=schedule,
        fault_plan=plan,
        trace_label=f"rb-{scheme.value}-{fault_name}-{schedule_name}-s{seed}",
    )
    measured = StreamingSession(
        measured_spec,
        primed.origin,
        "stream",
        cookie_store=store,
        cookie_manager=manager,
    ).run()
    return CellResult(
        scheme=scheme,
        fault=fault_name,
        schedule=schedule_name,
        seed=seed,
        primed_completed=primed.completed,
        completed=measured.completed,
        ffct=measured.ffct,
        used_cookie=measured.used_cookie,
        fault_summary=measured.fault_summary,
    )


# ---------------------------------------------------------------------------
# Matrix execution: one task per (scheme, seed) row.


def enumerate_cells(config: RobustnessConfig) -> List[Cell]:
    """Deterministic cell order; parallel results merge back into it."""
    schedules = build_schedules(config.conditions)
    faults = fault_plan_matrix()
    schedule_names = config.schedule_names or tuple(schedules)
    fault_names = config.fault_names or tuple(faults)
    unknown = set(schedule_names) - set(schedules)
    if unknown:
        raise ValueError(f"unknown schedule(s): {sorted(unknown)}")
    unknown = set(fault_names) - set(faults)
    if unknown:
        raise ValueError(f"unknown fault(s): {sorted(unknown)}")
    return [
        (as_spec(scheme), fault_name, schedule_name, seed)
        for scheme in config.schemes
        for fault_name in fault_names
        for schedule_name in schedule_names
        for seed in config.seeds
    ]


def run_row(cells: Sequence[Cell], config: RobustnessConfig) -> List[CellResult]:
    """Measure ``cells`` — all of one (scheme, seed) — from one priming.

    The priming session, the fault plans, the schedules and the origin
    are built once here and live no longer than this call.
    """
    scheme, _, _, seed = cells[0]
    if any((cell[0], cell[3]) != (scheme, seed) for cell in cells):
        raise ValueError("a row holds the cells of one (scheme, seed)")
    plans = fault_plan_matrix()
    schedules = build_schedules(config.conditions)
    primed = prime_chain(scheme, seed, config)
    return [
        run_cell(
            scheme,
            fault_name,
            plans[fault_name],
            schedule_name,
            schedules[schedule_name],
            seed,
            config,
            primed=primed,
        )
        for _, fault_name, schedule_name, _ in cells
    ]


def run_matrix(
    config: Optional[RobustnessConfig] = None, jobs: Optional[int] = None
) -> List[CellResult]:
    """Run every cell; order (and content) is independent of ``jobs``."""
    config = config or RobustnessConfig()
    cells = enumerate_cells(config)
    # Row → the enumerate_cells slots of its cells, rows in order of
    # first appearance.
    slots: Dict[Tuple[SchemeSpec, int], List[int]] = {}
    for index, (scheme, _, _, seed) in enumerate(cells):
        slots.setdefault((scheme, seed), []).append(index)
    rows = list(slots.values())
    tasks = [[cells[index] for index in row] for row in rows]
    # Rows finish in any order; the slots put each cell back in place.
    results: Dict[int, CellResult] = {}
    for row_index, row_results in run_tasks(
        partial(run_row, config=config), tasks, resolve_jobs(jobs)
    ):
        results.update(zip(rows[row_index], row_results))
    return [results[index] for index in range(len(cells))]


# ---------------------------------------------------------------------------
# Gates and report.


def evaluate_gates(
    results: Sequence[CellResult], config: RobustnessConfig
) -> Dict[str, object]:
    """Apply the completion and degradation gates; returns the report."""
    failures: List[str] = []
    for cell in results:
        if not cell.primed_completed or not cell.completed:
            failures.append(
                f"incomplete session: scheme={cell.scheme.value} "
                f"fault={cell.fault} schedule={cell.schedule} seed={cell.seed}"
            )

    # Mean FFCT per (scheme, fault, schedule) across the seed axis.
    sums: Dict[Tuple[SchemeSpec, str, str], List[float]] = {}
    for cell in results:
        if cell.ffct is not None:
            sums.setdefault((cell.scheme, cell.fault, cell.schedule), []).append(
                cell.ffct
            )
    means = {key: sum(v) / len(v) for key, v in sums.items()}

    ratio_gates: List[Dict[str, object]] = []
    gated_schemes = [as_spec(s) for s in config.schemes if as_spec(s) != BASELINE]
    for scheme in gated_schemes:
        for (mscheme, fault, schedule), mean_ffct in sorted(
            means.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])
        ):
            if mscheme != scheme:
                continue
            baseline = means.get((BASELINE, fault, schedule))
            if baseline is None or baseline <= 0.0:
                continue
            ratio = mean_ffct / baseline
            bound = max(
                config.ffct_ratio_bound,
                SCHEDULE_BOUND_OVERRIDES.get(schedule, 0.0),
                FAULT_BOUND_OVERRIDES.get(fault, 0.0),
            )
            ok = ratio <= bound
            ratio_gates.append(
                {
                    "scheme": scheme.value,
                    "fault": fault,
                    "schedule": schedule,
                    "mean_ffct": mean_ffct,
                    "baseline_mean_ffct": baseline,
                    "ratio": ratio,
                    "bound": bound,
                    "passed": ok,
                }
            )
            if not ok:
                failures.append(
                    f"FFCT degradation: {scheme.value} under fault={fault} "
                    f"schedule={schedule} is {ratio:.2f}x baseline "
                    f"(bound {bound:.2f}x)"
                )

    return {
        "config": {
            "seeds": list(config.seeds),
            "schemes": [as_spec(s).value for s in config.schemes],
            "ffct_ratio_bound": config.ffct_ratio_bound,
            "cells": len(results),
        },
        "cells": [cell.to_json() for cell in results],
        "ratio_gates": ratio_gates,
        "failures": failures,
        "passed": not failures,
    }


def run_robustness(
    config: Optional[RobustnessConfig] = None, jobs: Optional[int] = None
) -> Dict[str, object]:
    """Run the matrix and gate it; returns the JSON-ready report."""
    config = config or RobustnessConfig()
    results = run_matrix(config, jobs=jobs)
    return evaluate_gates(results, config)


# ---------------------------------------------------------------------------
# CLI.


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the robustness gate matrix (scheme × fault × schedule)."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "reduced scale for CI: one seed, four schedules, five schemes "
            "(baseline, wira, adaptive, wira_bbr2, wira_ar)"
        ),
    )
    parser.add_argument("--jobs", type=int, default=None, help="worker processes")
    parser.add_argument(
        "--bound", type=float, default=None, help="override the FFCT ratio bound"
    )
    parser.add_argument(
        "--output", type=str, default=None, help="write the JSON gate report here"
    )
    args = parser.parse_args(argv)

    config = RobustnessConfig.quick() if args.quick else RobustnessConfig()
    if args.bound is not None:
        from dataclasses import replace

        config = replace(config, ffct_ratio_bound=args.bound)

    report = run_robustness(config, jobs=args.jobs)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    gates = report["ratio_gates"]
    print(f"robustness matrix: {report['config']['cells']} cells")  # noqa: T201
    assert isinstance(gates, list)
    for gate in gates:
        marker = "ok  " if gate["passed"] else "FAIL"
        print(  # noqa: T201
            f"  [{marker}] {gate['scheme']:8s} fault={gate['fault']:18s} "
            f"schedule={gate['schedule']:12s} ratio={gate['ratio']:.2f} "
            f"(bound {gate['bound']:.2f})"
        )
    failures = report["failures"]
    assert isinstance(failures, list)
    for failure in failures:
        print(f"  GATE FAILURE: {failure}")  # noqa: T201
    print("PASSED" if report["passed"] else "FAILED")  # noqa: T201
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())

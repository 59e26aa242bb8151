"""The traced run: where a workload's host time goes, layer by layer.

One process per workload replays a slice — a quarter of one end-to-end
run's work — twice, first untraced, then under ``cProfile``, and reports:

* a **ledger**: profiler self-time folded through :mod:`bench.layers`
  into host ms per session per layer, summing to the traced total
  (:mod:`bench.ledger`);
* **counters** read from public results and from event-loop instances
  collected by wrapping the public loop constructors for this run only;
* **spans** ``run → setup{import, inputs, warmup} → timed → unit``, kept
  in memory and written out with everything else at exit;
* the **isolated drives** of :mod:`bench.drives`.

All of it is recorded from here, around the calls into each layer; no
file under ``src/`` is touched.  End-to-end metrics never come from this
run: the difference between its two passes is ``trace.overhead_x``.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from bench import OUT, drives
from bench.child import timed
from bench.layers import LAYERS
from bench.ledger import Ledger
from bench.verify import Outcome, percentile
from bench.workloads import (
    FLEET_JOBS,
    SERVE_LIGHT_CLIENTS,
    WORKLOADS,
    AdverseMatrix,
    FleetCampaign,
    ServeEdge,
    Workload,
)

#: Share of one end-to-end run's work the traced slice replays.
SLICE = 0.25

#: Layers whose exact call counts per session are reported.
CALL_COUNT_LAYERS = ("quic.codec", "quic.conn", "simnet.sched", "media")

#: Every simulated event loop a session can run on is built through one
#: of these names; wrapping them collects the instances so that
#: ``processed_events`` can be read once the run is over.
LOOP_CONSTRUCTORS = (
    ("repro.cdn.session", "EventLoop"),
    ("repro.cdn.batchrun", "BatchEventLoop"),
    ("repro.serve.shard", "SimLoop"),
)


class Spans:
    """In-memory span log: ``{id, parent, name, start, end}`` rows."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self._stack: List[Optional[int]] = [None]

    def open(self, name: str, nest: bool = True, **attributes: Any) -> int:
        span_id = len(self.rows)
        row = {"id": span_id, "parent": self._stack[-1], "name": name}
        row.update(attributes, start=time.perf_counter(), end=None)
        self.rows.append(row)
        if nest:
            self._stack.append(span_id)
        return span_id

    def close(self, span_id: int, **attributes: Any) -> None:
        self.rows[span_id].update(attributes, end=time.perf_counter())
        if self._stack[-1] == span_id:
            self._stack.pop()

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[int]:
        span_id = self.open(name, **attributes)
        try:
            yield span_id
        finally:
            self.close(span_id)

    def unit_hook(self, name: str) -> Callable[[int], None]:
        """Open a unit span; the returned function closes it.

        Units of the serve edge overlap (32 in flight on one thread), so
        a unit never becomes the parent of what opens after it.
        """
        span_id = self.open(name, nest=False, unit=True)
        return lambda sessions: self.close(span_id, sessions=sessions)

    def unit_ms_per_session(self, timed_span: int) -> List[float]:
        """Host ms per session of the innermost unit spans of one pass."""
        window = self.rows[timed_span]
        units = [
            row
            for row in self.rows
            if row.get("unit")
            and row.get("sessions")
            and window["start"] <= row["start"]
            and row["end"] <= window["end"]
        ]
        # The batched replay slices a scheme's chains into groups by
        # calling itself: only the groups are units, not the call around them.
        parents = {row["parent"] for row in units}
        return [
            1e3 * (row["end"] - row["start"]) / row["sessions"]
            for row in units
            if row["id"] not in parents
        ]


class Probes:
    """Wrappers installed around public names for the traced run only."""

    def __init__(self, workload: Workload, spans: Spans) -> None:
        self.workload = workload
        self.spans = spans
        self.loops: List[Any] = []
        self.first_frame_sent = 0
        self.first_frame_lost = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, name: str, wrapper: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        for module_name, name in LOOP_CONSTRUCTORS:
            module = importlib.import_module(module_name)
            self._replace(module, name, self._collecting(getattr(module, name)))
        if self.workload.unit is not None:
            module = importlib.import_module(self.workload.unit[0])
            name = self.workload.unit[1]
            self._replace(module, name, self._as_unit(name, getattr(module, name)))
        else:
            self.workload.span_hook = self.spans.unit_hook
        # ``run_deployment`` records and serve SHLO summaries carry the
        # first-frame packet counts; campaigns fold them away and matrix
        # cells drop them, so there the public call that still sees the
        # ``SessionResult`` is tapped.
        if isinstance(self.workload, FleetCampaign):
            from repro.fleet.aggregate import CampaignAggregate

            fold = CampaignAggregate.fold

            @functools.wraps(fold)
            def tapped_fold(aggregate: Any, scheme: str, planned: Any, result: Any) -> None:
                self._count_first_frame(result)
                fold(aggregate, scheme, planned, result)

            self._replace(CampaignAggregate, "fold", tapped_fold)
        elif isinstance(self.workload, AdverseMatrix):
            from repro.cdn.session import StreamingSession

            run = StreamingSession.run

            @functools.wraps(run)
            def tapped_run(session: Any) -> Any:
                result = run(session)
                self._count_first_frame(result)
                return result

            self._replace(StreamingSession, "run", tapped_run)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self.workload.span_hook = None

    def _collecting(self, constructor: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(constructor)
        def construct(*args: Any, **kwargs: Any) -> Any:
            loop = constructor(*args, **kwargs)
            self.loops.append(loop)
            return loop

        return construct

    def _as_unit(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(function)
        def unit(*args: Any, **kwargs: Any) -> Any:
            span_id = self.spans.open(name, unit=True)
            result = function(*args, **kwargs)
            self.spans.close(span_id, sessions=self.workload.unit_sessions(args, result))
            return result

        return unit

    def _count_first_frame(self, result: Any) -> None:
        if result.ff_server_stats is not None:
            self.first_frame_sent += result.ff_server_stats.data_packets_sent
            self.first_frame_lost += result.ff_server_stats.data_packets_lost

    def take(self) -> Dict[str, int]:
        """Counts since the last call; the next pass starts from zero."""
        counts = {
            "events": sum(loop.processed_events for loop in self.loops),
            "first_frame_sent": self.first_frame_sent,
            "first_frame_lost": self.first_frame_lost,
        }
        self.loops.clear()
        self.first_frame_sent = self.first_frame_lost = 0
        return counts


def _timed_pass(
    workload: Workload, spans: Spans, label: str, profile: Optional[cProfile.Profile] = None
) -> Tuple[Any, Outcome, float, float, int]:
    """One replay of the slice: result, outcome, wall s, CPU s, ``timed`` span."""
    span_id = spans.open("timed", mode=label)
    if profile is not None:
        profile.enable()
    try:
        raw, wall_s, cpu_s = timed(workload.run)
    finally:
        if profile is not None:
            profile.disable()
        spans.close(span_id)
    return raw, workload.outcome(raw), wall_s, cpu_s, span_id


def _session_percentiles(ms_per_session: List[float]) -> Dict[str, float]:
    """Median, and the highest percentile with at least ten units beyond it."""
    if not ms_per_session:
        return {"cdn.session_ms_p50": 0.0, "cdn.session_ms_tail": 0.0, "cdn.session_tail_pct": 0.0}
    tail_pct = 50.0
    for candidate in (90.0, 95.0, 98.0, 99.0, 99.5, 99.9):
        if len(ms_per_session) * (100.0 - candidate) / 100.0 >= 10:
            tail_pct = candidate
    return {
        "cdn.session_ms_p50": percentile(ms_per_session, 50),
        "cdn.session_ms_tail": percentile(ms_per_session, tail_pct),
        "cdn.session_tail_pct": tail_pct,
    }


def _fleet_extras(workload: FleetCampaign, serial_rate: float) -> Dict[str, float]:
    """Sharded replay of the slice: what the parent costs, what sharding buys."""
    workload.jobs = FLEET_JOBS
    workload.renew()
    own_before = sum(os.times()[:2])
    raw, wall_s, cpu_s = timed(workload.run)
    own_cpu = sum(os.times()[:2]) - own_before
    outcome = workload.outcome(raw)
    return {
        "fleet.parent_cpu_share": own_cpu / cpu_s if cpu_s else 0.0,
        "fleet.shard_speedup": (outcome.ops / wall_s) / serial_rate,
        "fleet.checkpoint_bytes": outcome.sim["fleet.checkpoint_bytes"],
    }


def _serve_extras(workload: ServeEdge, problems: List[str]) -> Dict[str, float]:
    """The light phase, checked against the simulator the way the loadtest is.

    At :data:`SERVE_LIGHT_CLIENTS` in flight the loop has slack, so the
    socket-measured FFCT is the shard's simulated FFCT plus jitter, and
    ``compare_schemes`` — discrete outcomes exactly equal, FFCT within
    the loadtest's tolerance — applies.  At 32 in flight the excess is
    queueing by design and only the per-session agreement checks do.
    """
    from repro.fleet import CampaignAggregate, FleetConfig, merge_chunks, run_chunk
    from repro.serve.loadtest import FFCT_ABS_TOL, FFCT_REL_TOL, compare_schemes
    from repro.workload.population import DeploymentConfig

    workload.clients = SERVE_LIGHT_CLIENTS
    workload.renew()
    raw = workload.run()
    outcomes = raw[0]
    light = workload.outcome(raw)
    problems.extend(f"light phase: {text}" for text in light.problems)

    served = CampaignAggregate(workload.schemes)
    for outcome in outcomes:
        served.fold(outcome.scheme_value, outcome.planned, outcome.result)
    reference = FleetConfig(
        population=DeploymentConfig(
            n_od_pairs=workload.units,
            seed=workload.sim_seed,
            video_frames_per_session=workload.frames,
        ),
        schemes=workload.schemes,
    )
    simulated = merge_chunks(
        reference.schemes,
        reference.sketch_alpha,
        [run_chunk(reference, index) for index in range(reference.n_chunks)],
    )
    comparison = compare_schemes(served, simulated, FFCT_REL_TOL, FFCT_ABS_TOL)
    if not comparison["ok"]:
        problems.append("light phase: serve-vs-sim comparison failed (loadtest.compare_schemes)")
    return {"serve.light_ffct_excess_ms_p90": light.sim.get("serve.ffct_excess_ms_p90", 0.0)}


def run_traced(args: argparse.Namespace) -> Dict[str, object]:
    """The whole traced run of one workload; returns the child's result."""
    spans = Spans()
    run_span = spans.open("run", workload=args.workload)
    workload = WORKLOADS[args.workload](args.seed, args.seconds * SLICE, args.sim_seed)
    if isinstance(workload, FleetCampaign):
        workload.jobs = 1  # one process, so the profiler sees the chunks
    probes = Probes(workload, spans)
    try:
        with spans.span("setup"):
            with spans.span("import"):
                workload.import_program()
            with spans.span("inputs"):
                workload.prepare()
            with spans.span("warmup"):
                workload.warmup()
        probes.install()
        edge_before = workload.counters()
        _, plain, wall_s, cpu_s, plain_span = _timed_pass(workload, spans, "untraced")
        counts = probes.take()
        edge_after = workload.counters()
        workload.renew()
        profile = cProfile.Profile()
        _, traced, traced_wall_s, _, _ = _timed_pass(workload, spans, "traced", profile)
        traced_counts = probes.take()
        probes.remove()

        problems = list(plain.problems) + [f"traced pass: {text}" for text in traced.problems]
        if plain.digest != traced.digest:
            problems.append("outcome digest differs between the untraced and the traced pass")
        if plain.digest is not None and counts != traced_counts:
            problems.append(f"counters differ between passes: {counts} != {traced_counts}")

        sessions = plain.ops
        ledger = Ledger(profile)
        metrics: Dict[str, float] = ledger.per_session_ms(traced.ops)
        metrics["trace.ledger_total_ms"] = 1e3 * ledger.total_seconds / max(1, traced.ops)
        for layer in CALL_COUNT_LAYERS:
            metrics[f"{layer}.calls"] = ledger.calls[layer] / max(1, traced.ops)
        metrics["rng.seed_calls"] = ledger.seed_calls / max(1, traced.ops)
        metrics["trace.overhead_x"] = traced_wall_s / wall_s
        metrics["simnet.events_per_session"] = counts["events"] / max(1, sessions)
        metrics["simnet.us_per_event"] = 1e6 * cpu_s / max(1, counts["events"])
        metrics.update(_session_percentiles(spans.unit_ms_per_session(plain_span)))
        metrics.update(plain.sim)
        if "quic.ff_packets_per_session" not in plain.sim:
            sent, lost = counts["first_frame_sent"], counts["first_frame_lost"]
            metrics["quic.ff_packets_per_session"] = sent / max(1, sessions)
            metrics["quic.ff_retransmit_share"] = lost / sent if sent else 0.0
        if isinstance(workload, FleetCampaign):
            metrics.update(_fleet_extras(workload, sessions / wall_s))
        if isinstance(workload, ServeEdge):
            moved = {key: edge_after[key] - edge_before[key] for key in edge_after}
            metrics["serve.datagrams_per_session"] = moved["datagrams"] / max(1, sessions)
            metrics["serve.dropped_datagrams"] = float(moved["dropped"])
            metrics["serve.repair_requests"] = float(moved["repair_requests"])
            metrics["serve.loop_busy_share"] = cpu_s / wall_s
            metrics.update(_serve_extras(workload, problems))
        with spans.span("drives"):
            metrics.update(drives.run_all())
        for name in PER_LAYER:
            metrics.setdefault(name, 0.0)  # the layer does not run on this workload
        spans.close(run_span)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "sim_seed": workload.sim_seed,
            "ops": plain.ops,
            "failed": plain.failed + traced.failed,
            "problems": problems,
            "outcome_digest": plain.digest,
            "slice": SLICE,
            "per_layer": metrics,
            "inputs": workload.describe(),
        }
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({**result, "spans": spans.rows}, fh, indent=1, sort_keys=True)
        return result
    finally:
        probes.remove()
        workload.close()


def _per_layer() -> Dict[str, str]:
    units = {f"{layer}.self_ms": "ms" for layer in LAYERS}
    units["host.idle_ms"] = "ms"
    units.update({f"{layer}.calls": "count" for layer in CALL_COUNT_LAYERS})
    units.update(
        {
            "rng.seed_calls": "count",
            "trace.ledger_total_ms": "ms",
            "trace.overhead_x": "x",
            "simnet.events_per_session": "count",
            "simnet.us_per_event": "us",
            "quic.ff_packets_per_session": "count",
            "quic.ff_retransmit_share": "share",
            "cdn.ffct_ms_mean.baseline": "ms",
            "cdn.ffct_ms_mean.wira": "ms",
            "cdn.ffct_ms_p90.wira": "ms",
            "cdn.ffct_gain_pct": "%",
            "cdn.session_ms_p50": "ms",
            "cdn.session_ms_tail": "ms",
            "cdn.session_tail_pct": "%",
            "core.cookie_hit_share": "share",
            "fleet.parent_cpu_share": "share",
            "fleet.checkpoint_bytes": "bytes",
            "fleet.shard_speedup": "x",
            "serve.ffct_excess_ms_p50": "ms",
            "serve.ffct_excess_ms_p90": "ms",
            "serve.ffct_excess_ms_p99": "ms",
            "serve.light_ffct_excess_ms_p90": "ms",
            "serve.datagrams_per_session": "count",
            "serve.dropped_datagrams": "count",
            "serve.repair_requests": "count",
            "serve.loop_busy_share": "share",
        }
    )
    return units


#: Every per-layer metric a traced run emits, with its unit — the drives
#: excepted, which :data:`bench.drives.UNITS` names.
PER_LAYER = _per_layer()

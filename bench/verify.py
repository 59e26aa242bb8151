"""Output checks, run on the results of every timed region.

Each ``check_*`` turns a leg's public result into an :class:`Outcome`:
how many sessions were attempted, how many failed, a digest of the
simulated outcomes, the simulated statistics the per-layer counters are
read from, and one line per check that did not hold.

Nothing here pins a golden value.  The checks state directions and
agreements (every session completes; Wira's mean FFCT is below the
baseline's; the socket saw what the shard simulated), and the digest is
only ever compared with another run of the same code, so a modelling fix
under ``src/`` never needs an edit here — tier-1's parity goldens keep
that job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

BASELINE = "baseline"
WIRA = "wira"


@dataclass
class Outcome:
    """What one timed region produced, after the clock stopped."""

    #: Sessions attempted.
    ops: int
    #: Sessions not completed, wire failures, socket-vs-shard disagreements.
    failed: int
    #: sha256 of the canonical-JSON outcomes; ``None`` where outcomes carry
    #: wall-clock values (``serve_edge``).
    digest: Optional[str]
    #: Simulated statistics and counters read from the public result.
    sim: Dict[str, float] = field(default_factory=dict)
    #: One line per output check that did not hold.
    problems: List[str] = field(default_factory=list)


def digest_of(payload: object) -> str:
    """sha256 over the canonical JSON encoding (sorted keys, no spaces)."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _ffct_stats(by_scheme: Mapping[str, Sequence[float]]) -> Dict[str, float]:
    """The paper's headline, simulated: mean/p90 FFCT and Wira's gain."""
    stats: Dict[str, float] = {}
    base = by_scheme.get(BASELINE)
    wira = by_scheme.get(WIRA)
    if base:
        stats["cdn.ffct_ms_mean.baseline"] = 1e3 * sum(base) / len(base)
    if wira:
        stats["cdn.ffct_ms_mean.wira"] = 1e3 * sum(wira) / len(wira)
        stats["cdn.ffct_ms_p90.wira"] = 1e3 * percentile(wira, 90)
    if base and wira:
        mean_base = stats["cdn.ffct_ms_mean.baseline"]
        stats["cdn.ffct_gain_pct"] = (
            100.0 * (mean_base - stats["cdn.ffct_ms_mean.wira"]) / mean_base
        )
    return stats


def _check_direction(stats: Mapping[str, float], problems: List[str]) -> None:
    """The paper's direction: Wira's mean FFCT is below the baseline's."""
    base = stats.get("cdn.ffct_ms_mean.baseline")
    wira = stats.get("cdn.ffct_ms_mean.wira")
    if base is None or wira is None:
        problems.append("no FFCT sample for baseline or wira")
    elif not wira < base:
        problems.append(
            f"mean FFCT wira {wira:.2f} ms is not below baseline {base:.2f} ms"
        )


def _packet_stats(sent: int, lost: int, sessions: int) -> Dict[str, float]:
    """First-frame packets per session and the share that was wasted."""
    return {
        "quic.ff_packets_per_session": sent / sessions if sessions else 0.0,
        "quic.ff_retransmit_share": lost / sent if sent else 0.0,
    }


def check_figure(
    records: Mapping[object, Sequence[object]], planned: int, direction: bool
) -> Outcome:
    """``run_deployment`` records: every planned session ran and completed.

    ``direction`` adds the paper's-direction check; the caller asks for it
    on full-size regions only (see ``workloads.FULL_SIZE_SECONDS``).
    """
    rows: Dict[str, List[Dict[str, object]]] = {}
    ffct: Dict[str, List[float]] = {}
    ops = failed = used_cookie = sent = lost = 0
    for scheme, outcomes in records.items():
        name = scheme.value  # type: ignore[attr-defined]
        for outcome in outcomes:
            spec, result = outcome.spec, outcome.result  # type: ignore[attr-defined]
            ops += 1
            failed += int(not result.completed)
            used_cookie += int(result.used_cookie)
            if result.ffct is not None:
                ffct.setdefault(name, []).append(result.ffct)
            if result.ff_server_stats is not None:
                sent += result.ff_server_stats.data_packets_sent
                lost += result.ff_server_stats.data_packets_lost
            rows.setdefault(name, []).append(
                {
                    "od": spec.od.od_id,
                    "session": spec.session_index,
                    "completed": result.completed,
                    "ffct": result.ffct,
                    "fflr": result.fflr,
                    "used_cookie": result.used_cookie,
                    "cookie_delivered": result.cookie_delivered,
                    "bytes": result.client_metrics.bytes_received,
                    "packets": result.final_server_stats.packets_sent,
                }
            )
    problems: List[str] = []
    if ops != planned:
        problems.append(f"{ops} sessions replayed, {planned} planned")
    stats = _ffct_stats(ffct)
    if direction:
        _check_direction(stats, problems)
    stats["core.cookie_hit_share"] = used_cookie / ops if ops else 0.0
    stats.update(_packet_stats(sent, lost, ops))
    return Outcome(ops, failed, digest_of(rows), stats, problems)


def check_fleet(total: object, planned: int) -> Outcome:
    """A merged ``CampaignAggregate``: all sessions folded, all completed.

    The paper's direction is reported (``cdn.ffct_gain_pct``) but not
    checked here: on four-frame sessions Wira's mean FFCT stays within
    -1.3 … +2.9 % of the baseline's as this population grows from 40 to
    520 OD pairs, crossing zero on the way, so the sign says how many
    chains were replayed and nothing about the program.
    """
    from repro.fleet import build_report

    schemes = total.schemes  # type: ignore[attr-defined]
    ops = sum(agg.sessions for agg in schemes.values())
    failed = sum(agg.sessions - agg.completed for agg in schemes.values())
    problems: List[str] = []
    if ops != planned:
        problems.append(f"{ops} sessions folded, {planned} planned")
    stats: Dict[str, float] = {}
    for name in (BASELINE, WIRA):
        agg = schemes.get(name)
        if agg is not None and agg.ffct_stats.count:
            stats[f"cdn.ffct_ms_mean.{name}"] = 1e3 * agg.ffct_stats.mean
    if WIRA in schemes and schemes[WIRA].ffct_stats.count:
        stats["cdn.ffct_ms_p90.wira"] = 1e3 * schemes[WIRA].ffct_sketch.percentile(90)
    if len(stats) == 3:
        base = stats["cdn.ffct_ms_mean.baseline"]
        stats["cdn.ffct_gain_pct"] = 100.0 * (base - stats["cdn.ffct_ms_mean.wira"]) / base
    used = sum(agg.used_cookie for agg in schemes.values())
    stats["core.cookie_hit_share"] = used / ops if ops else 0.0
    # A constant key: the campaign key folds the source fingerprint, and
    # the digest must not change because a comment under src/ did.
    report = build_report(total, key="bench")  # type: ignore[arg-type]
    return Outcome(ops, failed, digest_of(report), stats, problems)


def check_matrix(results: Sequence[object], config: object) -> Outcome:
    """``run_matrix`` cells: both sessions of every cell complete, gates pass."""
    from repro.experiments.robustness import evaluate_gates

    ops = 2 * len(results)
    failed = sum(
        int(not cell.primed_completed) + int(not cell.completed)  # type: ignore[attr-defined]
        for cell in results
    )
    report = evaluate_gates(results, config)  # type: ignore[arg-type]
    problems = [] if report["passed"] else [str(f) for f in report["failures"]]  # type: ignore[union-attr]
    ffct: Dict[str, List[float]] = {}
    for cell in results:
        if cell.ffct is not None:  # type: ignore[attr-defined]
            ffct.setdefault(cell.scheme.value, []).append(cell.ffct)  # type: ignore[attr-defined]
    stats = _ffct_stats(ffct)
    used = sum(int(cell.used_cookie) for cell in results)  # type: ignore[attr-defined]
    # Only the measured session of a cell can echo a cookie.
    stats["core.cookie_hit_share"] = used / len(results) if results else 0.0
    rows = [cell.to_json() for cell in results]  # type: ignore[attr-defined]
    return Outcome(ops, failed, digest_of(rows), stats, problems)


def check_serve(
    outcomes: Iterable[object],
    planned: int,
    wire_failures: Sequence[str],
    rejected_cookies: int,
    target_video_frames: int,
) -> Outcome:
    """Socket-measured outcomes against the shard's own SHLO summary."""
    problems: List[str] = [f"wire failure: {text}" for text in wire_failures]
    if rejected_cookies:
        problems.append(f"{rejected_cookies} echoed cookies rejected by a shard")
    ffct: Dict[str, List[float]] = {}
    excess_ms: List[float] = []
    ops = failed = used_cookie = sent = lost = 0
    for outcome in outcomes:
        result, summary = outcome.result, outcome.summary  # type: ignore[attr-defined]
        ops += 1
        frames = len(result.client_metrics.video_frame_times)
        agrees = (
            result.completed == summary.completed
            and result.used_cookie == summary.used_cookie
            and result.cookie_delivered == summary.cookie_pushed
            and min(frames, target_video_frames)
            == min(summary.frames_delivered, target_video_frames)
        )
        failed += int(not (result.completed and agrees))
        used_cookie += int(result.used_cookie)
        sent += summary.ff_data_packets_sent
        lost += summary.ff_data_packets_lost
        if summary.sim_ffct is not None:
            ffct.setdefault(outcome.scheme_value, []).append(summary.sim_ffct)  # type: ignore[attr-defined]
            if outcome.wall_ffct is not None:  # type: ignore[attr-defined]
                excess_ms.append(1e3 * (outcome.wall_ffct - summary.sim_ffct))  # type: ignore[attr-defined]
    failed += len(wire_failures)
    if ops + len(wire_failures) != planned:
        problems.append(f"{ops} sessions measured, {planned} planned")
    stats = _ffct_stats(ffct)
    stats["core.cookie_hit_share"] = used_cookie / ops if ops else 0.0
    stats.update(_packet_stats(sent, lost, ops))
    if excess_ms:
        stats["serve.ffct_excess_ms_p50"] = percentile(excess_ms, 50)
        stats["serve.ffct_excess_ms_p90"] = percentile(excess_ms, 90)
        stats["serve.ffct_excess_ms_p99"] = percentile(excess_ms, 99)
    return Outcome(ops + len(wire_failures), failed, None, stats, problems)

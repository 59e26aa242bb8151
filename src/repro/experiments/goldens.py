"""Golden parity digests: the three engines' complete output, one hash each.

The scheme registry replaced a closed five-member dispatch; these
digests were captured on the pre-redesign tree and pin the complete
observable output of all five legacy schemes across the three engines
(figure replay, fleet chunk, robustness matrix).  If any of them moves,
the simulator changed *behaviour*, not just API — that is a regression,
not a re-pin, unless the change is an intentional semantic one.

Serialization notes: floats go through ``repr`` (exact round-trip), the
payload through canonical JSON (sorted keys, no whitespace).

The digests hold traced and untraced alike, and on every interpreter
``requires-python`` admits.  ``FLEET_DIGEST`` covers the chunk's
per-phase FFCT accumulators, which every session fills.

CLI (standard library only, no test runner needed)::

    python -m repro.experiments.goldens

prints each digest with ``ok`` or ``MISMATCH`` and exits 1 on any
mismatch.  ``tests/experiments/test_scheme_parity.py`` asserts through
the same functions, so each digest has one definition.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cdn.session import SessionResult
from repro.core.schemes import BASELINE, STATIC_10, WIRA, WIRA_FF, WIRA_HX, SchemeSpec
from repro.experiments.common import DeploymentRecords
from repro.quic.connection import ConnectionStats
from repro.workload.population import DeploymentConfig

LEGACY_SCHEMES = (
    BASELINE,
    WIRA_FF,
    WIRA_HX,
    WIRA,
    STATIC_10,
)

FIGURE_DIGEST = "0d1486921abb7378846d25b7c06c66a12e2e83d1721a89da3a79416b7c0ee91c"
FLEET_DIGEST = "862588c94d11ef6bdb20f1ff9868bfa4abfa7f198b907b98ac937d706be33cf6"
ROBUST_DIGEST = "43ec7f583a297b50b4f1d55cb3758ca67961b2d5c644ececb6a792d8fb6fa5af"


def _scheme_value(scheme: object) -> str:
    return getattr(scheme, "value", str(scheme))


def _stats_row(stats: Optional[ConnectionStats]) -> Optional[List[object]]:
    if stats is None:
        return None
    return [
        stats.packets_sent,
        stats.packets_received,
        stats.packets_lost,
        stats.data_packets_sent,
        stats.data_packets_lost,
        stats.bytes_sent,
        stats.bytes_retransmitted,
        stats.duplicate_packets,
        stats.corrupt_packets,
        stats.undecodable_packets,
        stats.pto_count,
        repr(stats.handshake_completed_at),
        repr(stats.handshake_rtt_sample),
    ]


def _result_row(result: SessionResult) -> List[object]:
    params = result.initial_params
    return [
        _scheme_value(result.scheme),
        result.handshake_mode.value,
        result.completed,
        repr(result.ffct),
        repr(result.fflr),
        result.ff_size_parsed,
        None
        if params is None
        else [
            params.cwnd_bytes,
            repr(params.pacing_bps),
            params.used_ff_size,
            params.used_hx_qos,
            params.provisional,
        ],
        result.cookie_delivered,
        result.used_cookie,
        repr(result.server_min_rtt),
        repr(result.server_max_bw),
        _stats_row(result.final_server_stats),
        _stats_row(result.ff_server_stats),
        [repr(result.frame_time(k)) for k in (1, 2, 3, 4)],
    ]


def canonical_digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def records_digest(schemes: Sequence[SchemeSpec], records: DeploymentRecords) -> str:
    payload = []
    for scheme in schemes:
        rows = [_result_row(o.result) for o in records[scheme]]
        payload.append([_scheme_value(scheme), rows])
    return canonical_digest(payload)


def figure_digest() -> str:
    """Every legacy scheme's figure replay of 12 OD pairs, seed 42."""
    from repro.experiments.runner import run_deployment

    records = run_deployment(
        DeploymentConfig(n_od_pairs=12, seed=42), LEGACY_SCHEMES, use_cache=False
    )
    return records_digest(LEGACY_SCHEMES, records)


def fleet_digest() -> str:
    """One fleet chunk of 8 OD pairs, seed 7, over every legacy scheme."""
    from repro.fleet.engine import FleetConfig, run_chunk

    config = FleetConfig(
        population=DeploymentConfig(n_od_pairs=8, seed=7),
        schemes=tuple(s.value for s in LEGACY_SCHEMES),
        chunk_chains=8,
    )
    return canonical_digest(run_chunk(config, 0))


def robust_digest() -> str:
    """The robustness matrix at seed 7: two schedules, three faults."""
    from repro.experiments.robustness import RobustnessConfig, run_robustness

    config = RobustnessConfig(
        seeds=(7,),
        schemes=LEGACY_SCHEMES,
        schedule_names=("steady", "bw_collapse"),
        fault_names=("none", "cookie_corrupt", "ff_size_tiny"),
    )
    return canonical_digest(run_robustness(config, jobs=1))


#: name → (pinned digest, function computing it).
GOLDENS: Dict[str, Tuple[str, Callable[[], str]]] = {
    "FIGURE_DIGEST": (FIGURE_DIGEST, figure_digest),
    "FLEET_DIGEST": (FLEET_DIGEST, fleet_digest),
    "ROBUST_DIGEST": (ROBUST_DIGEST, robust_digest),
}


def main() -> int:
    mismatches = 0
    for name, (pinned, compute) in GOLDENS.items():
        digest = compute()
        ok = digest == pinned
        mismatches += not ok
        verdict = "ok" if ok else f"MISMATCH (pinned {pinned})"
        print(f"{name} {digest} {verdict}")  # noqa: T201
    print(f"python {sys.version.split()[0]}: {'FAILED' if mismatches else 'PASSED'}")  # noqa: T201
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

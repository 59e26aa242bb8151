"""Golden parity: legacy schemes are byte-identical through the registry.

The scheme registry replaced a closed five-member dispatch; these
digests were captured on the pre-redesign tree and pin the complete
observable output of all five legacy schemes across the three engines
(figure replay, fleet chunk, robustness matrix).  If any of them moves,
the registry changed *behaviour*, not just API — that is a regression,
not a re-pin, unless the change is an intentional semantic one.

Serialization notes: floats go through ``repr`` (exact round-trip), the
payload through canonical JSON (sorted keys, no whitespace).

The digests hold traced and untraced alike.  ``FLEET_DIGEST`` covers the
chunk's per-phase FFCT accumulators, which every session fills; it is
the digest the trace-event profiler that derived phases before gave
under ``WIRA_TRACE=1``.
"""

import hashlib
import json

from repro.core.schemes import BASELINE, STATIC_10, WIRA, WIRA_FF, WIRA_HX
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


def _scheme_value(scheme):
    return getattr(scheme, "value", str(scheme))


def _stats_row(stats):
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


def _result_row(result):
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


def _canonical_digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _records_digest(schemes, records):
    payload = []
    for scheme in schemes:
        rows = [_result_row(o.result) for o in records[scheme]]
        payload.append([_scheme_value(scheme), rows])
    return _canonical_digest(payload)


class TestGoldenParity:
    def test_figure_replay_digest(self):
        from repro.experiments.runner import run_deployment

        records = run_deployment(
            DeploymentConfig(n_od_pairs=12, seed=42), LEGACY_SCHEMES, use_cache=False
        )
        assert _records_digest(LEGACY_SCHEMES, records) == FIGURE_DIGEST

    def test_fleet_chunk_digest(self):
        from repro.fleet.engine import FleetConfig, run_chunk

        config = FleetConfig(
            population=DeploymentConfig(n_od_pairs=8, seed=7),
            schemes=tuple(s.value for s in LEGACY_SCHEMES),
            chunk_chains=8,
        )
        assert _canonical_digest(run_chunk(config, 0)) == FLEET_DIGEST

    def test_robustness_matrix_digest(self):
        from repro.experiments.robustness import RobustnessConfig, run_robustness

        config = RobustnessConfig(
            seeds=(7,),
            schemes=LEGACY_SCHEMES,
            schedule_names=("steady", "bw_collapse"),
            fault_names=("none", "cookie_corrupt", "ff_size_tiny"),
        )
        assert _canonical_digest(run_robustness(config, jobs=1)) == ROBUST_DIGEST

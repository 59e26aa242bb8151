"""Table I — parameter configurations of init_cwnd and init_pacing.

Executable documentation: evaluates every scheme on a fixed signal set
and renders the configuration table, verifying the implementation
matches the paper's formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import WiraConfig
from repro.core.initializer import payload_to_wire_bytes
from repro.core.schemes import (
    BASELINE,
    WIRA,
    WIRA_FF,
    WIRA_HX,
    InitContext,
    SchemeSpec,
    make_policy,
)
from repro.core.transport_cookie import HxQos


@dataclass
class Table1Row:
    scheme: SchemeSpec
    cwnd_formula: str
    pacing_formula: str
    cwnd_bytes: int
    pacing_bps: float


FORMULAS = {
    BASELINE: ("init_cwnd_exp", "init_cwnd/init_RTT_exp"),
    WIRA_FF: ("FF_Size", "init_cwnd/init_RTT_exp"),
    WIRA_HX: ("BDP", "MaxBW"),
    WIRA: ("min{FF_Size, BDP}", "MaxBW"),
}


def run(
    ff_size: int = 66_000,
    max_bw_bps: float = 8e6,
    min_rtt: float = 0.050,
) -> List[Table1Row]:
    config = WiraConfig()
    hx = HxQos(min_rtt=min_rtt, max_bw_bps=max_bw_bps, timestamp=0.0)
    rows = []
    for scheme, (cwnd_formula, pacing_formula) in FORMULAS.items():
        params = make_policy(scheme).initial_params(
            InitContext(config=config, ff_size=ff_size, hx_qos=hx)
        )
        rows.append(
            Table1Row(scheme, cwnd_formula, pacing_formula, params.cwnd_bytes, params.pacing_bps)
        )
    return rows


def verify(rows: List[Table1Row]) -> None:
    """Assert the computed values match the Table I formulas."""
    config = WiraConfig()
    by_scheme = {row.scheme: row for row in rows}
    exp_wire = payload_to_wire_bytes(config.init_cwnd_exp)
    ff_wire = payload_to_wire_bytes(66_000)
    bdp = int(8e6 * 0.050 / 8)
    assert by_scheme[BASELINE].cwnd_bytes == exp_wire
    assert by_scheme[WIRA_FF].cwnd_bytes == ff_wire
    assert by_scheme[WIRA_HX].cwnd_bytes == bdp
    assert by_scheme[WIRA].cwnd_bytes == min(ff_wire, bdp)
    # Exact equality is the point of this check: Table I passes MaxBW
    # through to init_pacing unchanged, so any arithmetic drift is a bug.
    assert by_scheme[WIRA_HX].pacing_bps == 8e6  # wira-lint: disable=WL003
    assert by_scheme[WIRA].pacing_bps == 8e6  # wira-lint: disable=WL003

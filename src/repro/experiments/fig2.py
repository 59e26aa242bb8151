"""Fig 2 — FFCT varies with init_cwnd and init_pacing (testbed).

Conditions follow §II footnote 2: 8 Mbps bandwidth, 3 % loss, 50 ms RTT,
25 KB buffer; the requested stream has a 66 KB first frame.

(a) sweeps ``init_cwnd`` in packets over {4, 10, 45, 80, 100} with
pacing tied to the window (``cwnd / RTT``); the paper finds 45 — the
window matching FF_Size — best, small values costing extra RTTs and
large ones suffering losses.

(b) pins ``init_cwnd`` to the first-frame size and sweeps
``init_pacing`` over {0.8, 4, 8, 16, 40} Mbps; 8 Mbps — matching the
bottleneck — wins, with ≥16 Mbps causing heavy first-frame loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.initializer import payload_to_wire_bytes
from repro.experiments.common import manual_params, run_testbed_session
from repro.metrics.stats import mean
from repro.simnet.path import NetworkConditions

TESTBED = NetworkConditions(
    bandwidth_bps=8_000_000.0, rtt=0.050, loss_rate=0.03, buffer_bytes=25_000
)
FF_BYTES = 66_000
CWND_SWEEP_PACKETS = (4, 10, 45, 80, 100)
PACING_SWEEP_MBPS = (0.8, 4.0, 8.0, 16.0, 40.0)
PACKET_WIRE = 1280


@dataclass
class SweepPoint:
    parameter: float
    ffct: float
    loss_rate: float


@dataclass
class Fig2Result:
    cwnd_sweep: List[SweepPoint]  # (a)
    pacing_sweep: List[SweepPoint]  # (b)


def _run_point(cwnd_bytes: int, pacing_bps: float, repeats: int, seed_base: int) -> Tuple[float, float]:
    ffcts, losses = [], []
    for r in range(repeats):
        result = run_testbed_session(
            manual_params(cwnd_bytes, pacing_bps),
            conditions=TESTBED,
            ff_target=FF_BYTES,
            seed=seed_base + r,
        )
        if result.ffct is not None:
            ffcts.append(result.ffct)
        if result.fflr is not None:
            losses.append(result.fflr)
    return mean(ffcts), mean(losses) if losses else 0.0


def run(repeats: int = 25, seed: int = 0) -> Fig2Result:
    cwnd_sweep = []
    for packets in CWND_SWEEP_PACKETS:
        cwnd = packets * PACKET_WIRE
        pacing = cwnd * 8.0 / TESTBED.rtt  # pacing follows the window
        ffct, loss = _run_point(cwnd, pacing, repeats, seed + packets * 1000)
        cwnd_sweep.append(SweepPoint(packets, ffct, loss))

    pacing_sweep = []
    ff_wire = payload_to_wire_bytes(FF_BYTES)
    for mbps in PACING_SWEEP_MBPS:
        ffct, loss = _run_point(ff_wire, mbps * 1e6, repeats, seed + int(mbps * 10) * 7919)
        pacing_sweep.append(SweepPoint(mbps, ffct, loss))
    return Fig2Result(cwnd_sweep, pacing_sweep)

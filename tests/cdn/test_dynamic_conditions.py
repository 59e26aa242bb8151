"""Sessions over time-varying paths (ConditionTrace through PathSchedule).

The cookie's premise is that the path seen *now* resembles the path seen
last session (§II-D); these tests exercise the opposite case — the path
changing mid-session — and check the transport and Wira degrade
gracefully rather than relying on initial conditions staying true.
"""

import random

import pytest

from repro.quic import Connection, HandshakeMode, QuicConfig, Role
from repro.simnet.engine import EventLoop
from repro.simnet.path import NetworkConditions, Path
from repro.simnet.schedule import PathSchedule
from repro.simnet.trace import ConditionTrace, TracePoint

FAST = NetworkConditions(bandwidth_bps=16e6, rtt=0.04, buffer_bytes=200_000)
SLOW = NetworkConditions(bandwidth_bps=2e6, rtt=0.04, buffer_bytes=200_000)


def run_transfer_over_trace(trace, size=600_000, seed=0):
    loop = EventLoop()
    path = Path(loop, trace.initial_conditions, rng=random.Random(seed))
    PathSchedule(trace=trace).install(loop, path, random.Random(seed))
    config = QuicConfig(initial_rtt=0.04)
    server = Connection(loop, Role.SERVER, path.send_to_client, config,
                        rng=random.Random(seed + 1))
    client = Connection(loop, Role.CLIENT, path.send_to_server, config,
                        rng=random.Random(seed + 2))
    path.deliver_to_server = server.datagram_received
    path.deliver_to_client = client.datagram_received
    done = []
    received = bytearray()

    def on_data(sid, data, fin):
        received.extend(data)
        if fin and not done:
            done.append(loop.now)

    client.on_stream_data = on_data
    server.on_stream_data = (
        lambda sid, d, fin: server.send_stream_data(sid, bytes(size), fin=True) if fin else None
    )
    client.start()
    client.send_stream_data(0, b"GET", fin=True)
    while not done and loop.pending_events and loop.now < 30.0:
        loop.run_until(loop.now + 0.5, max_events=200_000)
    return loop, server, received, done


def test_transfer_survives_bandwidth_collapse():
    """16 Mbps collapses to 2 Mbps mid-transfer; BBR must adapt."""
    trace = ConditionTrace([TracePoint(0.0, FAST), TracePoint(0.15, SLOW)])
    loop, server, received, done = run_transfer_over_trace(trace)
    assert done, "transfer must complete despite the collapse"
    assert len(received) == 600_000
    # After the collapse the model must be well on its way down from
    # 16 Mbps (the 10-round max filter still holds decaying samples at
    # the moment the transfer completes, so full convergence to 2 Mbps
    # is not required — only clear adaptation).
    assert server.cc.bandwidth_estimate() < 10e6
    # And the completion time must reflect the slow regime: 600 kB at a
    # pure 16 Mbps would take ~0.3 s; the collapse forces well beyond.
    assert done[0] > 1.0


def test_transfer_exploits_bandwidth_increase():
    """2 Mbps jumps to 16 Mbps; completion must beat the all-slow path."""
    step_up = ConditionTrace([TracePoint(0.0, SLOW), TracePoint(0.4, FAST)])
    always_slow = ConditionTrace([TracePoint(0.0, SLOW)])
    _, _, _, done_up = run_transfer_over_trace(step_up)
    _, _, _, done_slow = run_transfer_over_trace(always_slow)
    assert done_up and done_slow
    assert done_up[0] < done_slow[0] * 0.75


def test_rtt_inflation_mid_transfer():
    """Propagation delay triples mid-transfer; recovery must not
    misfire into a retransmission storm."""
    inflated = NetworkConditions(bandwidth_bps=8e6, rtt=0.15, buffer_bytes=200_000)
    base = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, buffer_bytes=200_000)
    trace = ConditionTrace([TracePoint(0.0, base), TracePoint(0.2, inflated)])
    loop, server, received, done = run_transfer_over_trace(trace, size=400_000)
    assert done
    assert len(received) == 400_000
    # Spurious-retransmission volume stays small relative to the payload.
    assert server.stats.bytes_retransmitted < 0.10 * 400_000


def test_loss_burst_window():
    """A transient 30%-loss episode must be recovered from cleanly."""
    clean = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, buffer_bytes=200_000)
    bursty = NetworkConditions(bandwidth_bps=8e6, rtt=0.05, loss_rate=0.3, buffer_bytes=200_000)
    trace = ConditionTrace(
        [TracePoint(0.0, clean), TracePoint(0.1, bursty), TracePoint(0.4, clean)]
    )
    loop, server, received, done = run_transfer_over_trace(trace, size=400_000, seed=7)
    assert done
    assert len(received) == 400_000
    assert server.stats.packets_lost > 0

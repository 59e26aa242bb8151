"""Tests for time-varying condition traces.

A trace is played onto a path by ``PathSchedule.install``, the one
mechanism sessions use."""

import random

import pytest

from repro.simnet.engine import EventLoop
from repro.simnet.link import Datagram
from repro.simnet.path import NetworkConditions, Path
from repro.simnet.schedule import PathSchedule
from repro.simnet.trace import ConditionTrace, TracePoint


COND_A = NetworkConditions(bandwidth_bps=1e6, rtt=0.05)
COND_B = NetworkConditions(bandwidth_bps=2e6, rtt=0.10)


def install(trace, loop, path):
    PathSchedule(trace=trace).install(loop, path, random.Random(0))


def test_trace_requires_points():
    with pytest.raises(ValueError):
        ConditionTrace([])


def test_trace_must_start_at_zero():
    with pytest.raises(ValueError):
        ConditionTrace([TracePoint(1.0, COND_A)])


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        TracePoint(-1.0, COND_A)


def test_constant_trace():
    trace = ConditionTrace([TracePoint(0.0, COND_A)])
    assert trace.initial_conditions == COND_A
    loop = EventLoop()
    path = Path(loop, COND_B, rng=random.Random(0))
    install(trace, loop, path)
    loop.run_until(100.0)
    assert path.conditions == COND_A


def test_conditions_at_piecewise_lookup():
    trace = ConditionTrace([TracePoint(0.0, COND_A), TracePoint(10.0, COND_B)])
    loop = EventLoop()
    path = Path(loop, COND_A, rng=random.Random(0))
    install(trace, loop, path)
    seen = {}
    for t in (0.0, 9.999, 10.0, 50.0):
        loop.run_until(t)
        seen[t] = path.conditions
    assert seen == {0.0: COND_A, 9.999: COND_A, 10.0: COND_B, 50.0: COND_B}


def test_points_sorted_on_construction():
    trace = ConditionTrace([TracePoint(10.0, COND_B), TracePoint(0.0, COND_A)])
    assert trace.points[0].time == 0.0


def test_install_schedules_changes():
    loop = EventLoop()
    path = Path(loop, COND_A, rng=random.Random(0))
    trace = ConditionTrace([TracePoint(0.0, COND_A), TracePoint(5.0, COND_B)])
    install(trace, loop, path)
    assert path.conditions == COND_A
    loop.run_until(4.0)
    assert path.conditions == COND_A
    loop.run_until(6.0)
    assert path.conditions == COND_B


def test_install_is_relative_to_now():
    loop = EventLoop()
    path = Path(loop, COND_A, rng=random.Random(0))
    loop.run_until(100.0)
    trace = ConditionTrace([TracePoint(0.0, COND_A), TracePoint(5.0, COND_B)])
    install(trace, loop, path)
    loop.run_until(104.0)
    assert path.conditions == COND_A
    loop.run_until(106.0)
    assert path.conditions == COND_B


def test_trace_drives_delivery_rate():
    loop = EventLoop()
    slow = NetworkConditions(bandwidth_bps=8_000.0, rtt=0.0)
    fast = NetworkConditions(bandwidth_bps=800_000.0, rtt=0.0)
    path = Path(loop, slow, rng=random.Random(0))
    trace = ConditionTrace([TracePoint(0.0, slow), TracePoint(1.0, fast)])
    install(trace, loop, path)
    times = []
    path.deliver_to_client = lambda d: times.append(loop.now)
    path.send_to_client(Datagram(b"x" * 100))  # 0.1s at slow rate
    loop.run_until(2.0)
    path.send_to_client(Datagram(b"x" * 100))  # 0.001s at fast rate
    loop.run()
    assert times[0] == pytest.approx(0.1)
    assert times[1] - 2.0 == pytest.approx(0.001)

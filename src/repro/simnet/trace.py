"""Time-varying link condition schedules.

A :class:`ConditionTrace` is a piecewise-constant schedule of
:class:`~repro.simnet.path.NetworkConditions`;
:meth:`repro.simnet.schedule.PathSchedule.install` plays it onto a
:class:`~repro.simnet.path.Path`.  Experiments use traces to model
bandwidth/RTT drift within a session (e.g. to study how stale Hx_QoS
cookies degrade Wira(Hx), Fig 13(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.simnet.path import NetworkConditions


@dataclass(frozen=True)
class TracePoint:
    """Conditions taking effect at ``time`` (seconds from trace start)."""

    time: float
    conditions: NetworkConditions

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("trace point time must be non-negative")


class ConditionTrace:
    """Ordered schedule of condition changes.

    The first point must be at time 0 so the path always has defined
    conditions from the start of the trace.
    """

    def __init__(self, points: Sequence[TracePoint]) -> None:
        if not points:
            raise ValueError("trace needs at least one point")
        ordered = sorted(points, key=lambda p: p.time)
        # Sentinel check, not arithmetic: segments authored to start the
        # trace carry a literal 0.0, so exact inequality is the right test
        # for "does this trace cover t=0".
        if ordered[0].time != 0.0:  # wira-lint: disable=WL003
            raise ValueError("first trace point must be at time 0")
        self.points: List[TracePoint] = list(ordered)

    @property
    def initial_conditions(self) -> NetworkConditions:
        return self.points[0].conditions

"""Streaming aggregates a fleet campaign folds sessions into.

A campaign never retains :class:`~repro.cdn.session.SessionResult`
objects — at 10^5–10^6 sessions the record list of the figure-scale
replay would dominate memory.  Instead every outcome is folded into a
:class:`SchemeAggregate` the moment it completes and dropped; chunk
aggregates merge into the campaign total.

Everything here is mergeable *exactly*: counters are integers, sums are
canonical dyadic rationals (:class:`~repro.metrics.sketch.ExactSum`),
and percentiles come from integer-bucket quantile sketches
(:class:`~repro.metrics.sketch.QuantileSketch`).  Merging chunk
aggregates in chunk-index order therefore yields byte-identical JSON
whether the chunks ran serially or across a process pool — the
acceptance criterion the fleet engine's tests pin.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro.cdn.session import PHASES, SessionResult
from repro.metrics.sketch import DEFAULT_ALPHA, QuantileSketch, StatAccumulator
from repro.quic.connection import HandshakeMode
from repro.workload.population import PlannedSession

#: Counter names, in serialization order.
_COUNTERS: Tuple[str, ...] = (
    "sessions",
    "completed",
    "first_sessions",
    "zero_rtt",
    "cookie_delivered",
    "used_cookie",
)


class SchemeAggregate:
    """Everything one scheme's sessions contribute, in O(1) memory."""

    __slots__ = (
        "sessions",
        "completed",
        "first_sessions",
        "zero_rtt",
        "cookie_delivered",
        "used_cookie",
        "ffct_stats",
        "ffct_sketch",
        "fflr_stats",
        "fflr_sketch",
        "phase_stats",
    )

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        self.sessions = 0
        self.completed = 0
        self.first_sessions = 0
        self.zero_rtt = 0
        self.cookie_delivered = 0
        self.used_cookie = 0
        self.ffct_stats = StatAccumulator()
        self.ffct_sketch = QuantileSketch(alpha=alpha)
        self.fflr_stats = StatAccumulator()
        self.fflr_sketch = QuantileSketch(alpha=alpha)
        # FFCT phase decomposition, one sample per completed first frame.
        self.phase_stats: Dict[str, StatAccumulator] = {
            name: StatAccumulator() for name in PHASES
        }

    def fold(self, planned: PlannedSession, result: SessionResult) -> None:
        """Absorb one session outcome and forget it."""
        self.sessions += 1
        self.completed += int(result.completed)
        self.first_sessions += int(planned.is_first_session)
        self.zero_rtt += int(planned.handshake_mode == HandshakeMode.ZERO_RTT)
        self.cookie_delivered += int(result.cookie_delivered)
        self.used_cookie += int(result.used_cookie)
        ffct = result.ffct
        if ffct is not None:
            self.ffct_stats.add(ffct)
            self.ffct_sketch.add(ffct)
        fflr = result.fflr
        if fflr is not None:
            self.fflr_stats.add(fflr)
            self.fflr_sketch.add(fflr)
        breakdown = result.phase_breakdown
        if breakdown is not None:
            for name in PHASES:
                self.phase_stats[name].add(breakdown.phase(name))

    @property
    def phase_sessions(self) -> int:
        """Sessions that contributed an FFCT phase breakdown."""
        return self.phase_stats[PHASES[0]].count

    def merge(self, other: "SchemeAggregate") -> None:
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.ffct_stats.merge(other.ffct_stats)
        self.ffct_sketch.merge(other.ffct_sketch)
        self.fflr_stats.merge(other.fflr_stats)
        self.fflr_sketch.merge(other.fflr_sketch)
        for name in PHASES:
            self.phase_stats[name].merge(other.phase_stats[name])

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {name: getattr(self, name) for name in _COUNTERS}
        payload["ffct_stats"] = self.ffct_stats.to_json()
        payload["ffct_sketch"] = self.ffct_sketch.to_json()
        payload["fflr_stats"] = self.fflr_stats.to_json()
        payload["fflr_sketch"] = self.fflr_sketch.to_json()
        payload["phases"] = {name: self.phase_stats[name].to_json() for name in PHASES}
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "SchemeAggregate":
        agg = cls.__new__(cls)
        try:
            for name in _COUNTERS:
                setattr(agg, name, int(payload[name]))  # type: ignore[call-overload]
            agg.ffct_stats = StatAccumulator.from_json(payload["ffct_stats"])  # type: ignore[arg-type]
            agg.ffct_sketch = QuantileSketch.from_json(payload["ffct_sketch"])  # type: ignore[arg-type]
            agg.fflr_stats = StatAccumulator.from_json(payload["fflr_stats"])  # type: ignore[arg-type]
            agg.fflr_sketch = QuantileSketch.from_json(payload["fflr_sketch"])  # type: ignore[arg-type]
            phases: Mapping[str, Mapping[str, object]] = payload["phases"]  # type: ignore[assignment]
            agg.phase_stats = {
                name: StatAccumulator.from_json(phases[name]) for name in PHASES
            }
        except KeyError as exc:
            # Missing keys mean a payload from an incompatible writer (the
            # format version should have caught it); surface the defect as
            # the ValueError every caller already handles, never a raw
            # KeyError traceback.
            raise ValueError(f"scheme aggregate payload missing key {exc}") from exc
        return agg


class CampaignAggregate:
    """Per-scheme aggregates of one campaign (or one chunk of it)."""

    __slots__ = ("alpha", "schemes")

    def __init__(self, scheme_values: Iterable[str], alpha: float = DEFAULT_ALPHA) -> None:
        self.alpha = alpha
        self.schemes: Dict[str, SchemeAggregate] = {
            value: SchemeAggregate(alpha=alpha) for value in scheme_values
        }

    def fold(self, scheme_value: str, planned: PlannedSession, result: SessionResult) -> None:
        self.schemes[scheme_value].fold(planned, result)

    def merge(self, other: "CampaignAggregate") -> None:
        if sorted(self.schemes) != sorted(other.schemes):
            raise ValueError(
                "cannot merge campaign aggregates over different scheme sets"
            )
        for value in sorted(other.schemes):
            self.schemes[value].merge(other.schemes[value])

    @property
    def total_sessions(self) -> int:
        return sum(agg.sessions for agg in self.schemes.values())

    def to_json(self) -> Dict[str, object]:
        return {
            "alpha": self.alpha,
            "schemes": {
                value: agg.to_json() for value, agg in sorted(self.schemes.items())
            },
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "CampaignAggregate":
        agg = cls.__new__(cls)
        try:
            agg.alpha = float(payload["alpha"])  # type: ignore[arg-type]
            schemes: Mapping[str, Mapping[str, object]] = payload["schemes"]  # type: ignore[assignment]
        except KeyError as exc:
            raise ValueError(f"campaign aggregate payload missing key {exc}") from exc
        agg.schemes = {
            value: SchemeAggregate.from_json(schemes[value]) for value in sorted(schemes)
        }
        return agg


def merge_chunks(
    scheme_values: Iterable[str],
    alpha: float,
    chunk_payloads: List[Mapping[str, object]],
) -> CampaignAggregate:
    """Merge chunk aggregates **in the given (chunk-index) order**.

    The fixed order is what makes serial and sharded campaigns
    byte-identical: a pool may *complete* chunks in any order, but the
    caller hands them over sorted by chunk index.
    """
    total = CampaignAggregate(scheme_values, alpha=alpha)
    for payload in chunk_payloads:
        total.merge(CampaignAggregate.from_json(payload))
    return total


def payload_sessions(payload: Mapping[str, object]) -> int:
    """Sessions folded into one :meth:`CampaignAggregate.to_json` payload,
    read from its counters without decoding a sketch."""
    schemes: Mapping[str, Mapping[str, object]] = payload["schemes"]  # type: ignore[assignment]
    return sum(int(entry["sessions"]) for entry in schemes.values())  # type: ignore[call-overload]


__all__ = [
    "CampaignAggregate",
    "SchemeAggregate",
    "merge_chunks",
    "payload_sessions",
]

"""Structured sanitizer failures.

A :class:`SanitizerError` pinpoints *which* transport invariant broke
and *at what simulated time* — the facts needed to replay the offending
session deterministically and debug it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Canonical invariant names, mirrored by the unit tests.
INVARIANTS: Tuple[str, ...] = ("bbr_transition",)


class SanitizerError(AssertionError):
    """A runtime transport invariant was violated.

    Subclasses :class:`AssertionError` so existing "no assertion fired"
    harnesses treat sanitizer trips as test failures without special
    casing.
    """

    def __init__(self, invariant: str, detail: str, sim_time: Optional[float] = None) -> None:
        if invariant not in INVARIANTS:
            raise ValueError(
                f"unknown sanitizer invariant {invariant!r}; expected one of {INVARIANTS}"
            )
        self.invariant = invariant
        self.detail = detail
        self.sim_time = sim_time
        # Post-mortem context: when the trace bus is active, capture the
        # tail of recent transport events leading up to the violation.
        # Lazy import — obs and sanitize must stay independently loadable.
        self.trace_tail: List[object] = []
        try:
            from repro import obs as _obs

            if _obs.ACTIVE is not None:
                self.trace_tail = list(_obs.ACTIVE.ring_events())
        except ImportError:  # pragma: no cover - obs is part of the package
            pass
        parts = [f"[{invariant}]", detail]
        if sim_time is not None:
            parts.append(f"t={sim_time:.6f}s")
        super().__init__(" ".join(parts))

"""The invariant checks, installed at the transport's attach points.

===========================  ==============================================
Invariant                    Attach point
===========================  ==============================================
``bbr_transition``           :meth:`BbrSender._set_mode`
===========================  ==============================================

A check stays only where no plain gate catches its planted defect
(CONTRIBUTING.md, "Sanitizer plant table").  A BBR state machine that
skips DRAIN fails nothing else: a live session is app-limited and
rarely leaves STARTUP, and no plain test states the edges.
"""

from __future__ import annotations

from typing import Dict

from repro.sanitize.errors import SanitizerError

#: Legal BBR state-machine edges (mode.value -> mode.value):
#: STARTUP->DRAIN->PROBE_BW, PROBE_RTT entered from any post-startup
#: mode once the min-RTT estimate expires, and left to PROBE_BW (model
#: filled) or back to STARTUP (model still empty).
LEGAL_BBR_TRANSITIONS = frozenset(
    {
        ("startup", "drain"),
        ("drain", "probe_bw"),
        ("probe_bw", "probe_rtt"),
        ("drain", "probe_rtt"),
        ("probe_rtt", "probe_bw"),
        ("probe_rtt", "startup"),
    }
)


class TransportSanitizer:
    """Cheap invariant checks; raises :class:`SanitizerError` on breach.

    One instance is installed globally through :mod:`repro.sanitize`;
    :attr:`checks_run` counts executed checks per invariant so tests can
    verify the sanitizer was genuinely active during a run.
    """

    __slots__ = ("checks_run",)

    def __init__(self) -> None:
        self.checks_run: Dict[str, int] = {}

    def check_bbr_transition(self, old_mode: object, new_mode: object, now: float) -> None:
        self.checks_run["bbr_transition"] = self.checks_run.get("bbr_transition", 0) + 1
        old = getattr(old_mode, "value", str(old_mode))
        new = getattr(new_mode, "value", str(new_mode))
        if old == new:
            return
        if (old, new) not in LEGAL_BBR_TRANSITIONS:
            raise SanitizerError(
                "bbr_transition",
                f"illegal BBR transition {old} -> {new}",
                sim_time=now,
            )

"""Opt-in runtime transport sanitizer (``WIRA_SANITIZE=1``).

The simulator's correctness story rests on invariants no test asserts
continuously: the event clock never rewinds, pacer debt stays bounded,
packet numbers grow strictly, ACKs stay within the sent range, the parsed
packet riding in a datagram is what its bytes decode to, BBR only
takes legal state-machine edges, Wira's initial-parameter overrides
are applied at most once (plus the documented corner-case-1 re-init),
and a session one scheme takes from another is the one it would have
simulated.
This package installs cheap checks for all of them at the same attach
points the Wira hooks use, so **any** test or experiment run doubles as
a sanitized run::

    WIRA_SANITIZE=1 python -m pytest -x -q

Design constraints:

* **~0 % overhead when disabled** — hook sites test one module global
  (``ACTIVE is not None``); the event loops read it once per run.
* **<= 10 % overhead when enabled** — each check is a handful of
  comparisons; verified by ``benchmarks/test_bench_speed.py``.  The
  exceptions are ``datagram_parse``, which encodes and decodes every
  delivered packet (what every sender and receiver did unconditionally
  before the sender's packet travelled in place of its bytes) and
  compares, and ``shared_session``, which simulates every session a
  replay shares between schemes and compares.
* violations raise :class:`~repro.sanitize.errors.SanitizerError`
  carrying the invariant name, connection id and simulated time.

Programmatic use::

    from repro import sanitize

    with sanitize.sanitized() as san:
        run_session(...)
    assert san.checks_run["clock_monotonic"] > 0
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.sanitize.checks import (
    LEGAL_BBR_TRANSITIONS,
    MAX_CWND_BYTES,
    MAX_INITIAL_OVERRIDES,
    MIN_CWND_MSS,
    PACER_DEBT_BURSTS,
    TransportSanitizer,
)
from repro.sanitize.errors import INVARIANTS, SanitizerError

__all__ = [
    "ACTIVE",
    "INVARIANTS",
    "LEGAL_BBR_TRANSITIONS",
    "MAX_CWND_BYTES",
    "MAX_INITIAL_OVERRIDES",
    "MIN_CWND_MSS",
    "PACER_DEBT_BURSTS",
    "SanitizerError",
    "TransportSanitizer",
    "disable",
    "enable",
    "enabled",
    "env_requested",
    "sanitized",
    "suppressed",
]

#: The installed sanitizer, or ``None`` when disabled.  Hook sites read
#: this module attribute directly (``sanitize.ACTIVE is not None``), so
#: enabling/disabling is a single rebind with no import-order coupling.
ACTIVE: Optional[TransportSanitizer] = None


def env_requested() -> bool:
    """True when ``WIRA_SANITIZE`` asks for the sanitizer.

    Delegates to :mod:`repro.runtime.settings`, the single parse point
    for every ``WIRA_*`` knob.
    """
    from repro.runtime import settings

    return settings.current().sanitize


def enable(sanitizer: Optional[TransportSanitizer] = None) -> TransportSanitizer:
    """Install (or replace) the global sanitizer and return it."""
    global ACTIVE
    ACTIVE = sanitizer or TransportSanitizer()
    return ACTIVE


def disable() -> None:
    """Remove the global sanitizer; hook sites revert to zero-cost."""
    global ACTIVE
    ACTIVE = None


def enabled() -> bool:
    return ACTIVE is not None


@contextmanager
def suppressed() -> Iterator[None]:
    """Scoped *disable*, restoring the previous sanitizer afterwards.

    For tests that deliberately inject peer misbehaviour (e.g. ACKs for
    never-sent packets) which production code tolerates but the
    sanitizer — by design — reports.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    try:
        yield
    finally:
        ACTIVE = previous


@contextmanager
def sanitized(
    sanitizer: Optional[TransportSanitizer] = None,
) -> Iterator[TransportSanitizer]:
    """Scoped enable/restore, for tests and ad-hoc debugging."""
    global ACTIVE
    previous = ACTIVE
    installed = enable(sanitizer)
    try:
        yield installed
    finally:
        ACTIVE = previous


if env_requested():  # pragma: no cover - exercised by the sanitized CI job
    enable()

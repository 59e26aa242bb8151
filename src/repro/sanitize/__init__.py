"""Opt-in runtime transport sanitizer (``WIRA_SANITIZE=1``).

The sanitizer checks, at the transport's own attach points, an
invariant no plain test asserts: BBR only takes legal state-machine
edges (``bbr_transition``).  A check earns its place against a planted
defect: it stays only while it is the sole catcher of that defect
(CONTRIBUTING.md, "Sanitizer plant table", and
``tests/sanitize/test_sanitizer_plants.py``).  Any test or experiment
run doubles as a sanitized run::

    WIRA_SANITIZE=1 python -m pytest -x -q

Design constraints:

* **~0 % overhead when disabled** — the hook site tests one module
  global (``ACTIVE is not None``).
* **cheap when enabled** — one check per BBR mode change, a set lookup;
  ``tests/sanitize/test_sanitizer.py`` pins how many checks one session
  runs, so a new per-packet check fails tier-1.
* violations raise :class:`~repro.sanitize.errors.SanitizerError`
  carrying the invariant name and simulated time.

Programmatic use::

    from repro import sanitize

    with sanitize.sanitized() as san:
        run_session(...)
    assert san.checks_run["bbr_transition"] > 0
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.sanitize.checks import LEGAL_BBR_TRANSITIONS, TransportSanitizer
from repro.sanitize.errors import INVARIANTS, SanitizerError

__all__ = [
    "ACTIVE",
    "INVARIANTS",
    "LEGAL_BBR_TRANSITIONS",
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

    For tests that deliberately drive a transport object through a state
    the sanitizer — by design — reports.
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

"""The single parse point for every ``WIRA_*`` environment knob.

Before this module existed the knobs were read ad hoc where they were
consumed — ``WIRA_JOBS``/``WIRA_CACHE_DIR``/``WIRA_DISK_CACHE`` inside
the replay runner, ``WIRA_SANITIZE`` in :mod:`repro.sanitize`,
``WIRA_TRACE``/``WIRA_TRACE_DIR`` in :mod:`repro.obs` — each with its
own string-to-value convention.  :class:`Settings` is now the one place
those strings become values; the legacy accessors
(:func:`repro.sanitize.env_requested`,
:func:`repro.obs.env_requested`, :func:`repro.obs.env_trace_dir`,
:func:`repro.runtime.pool.resolve_jobs` …) all delegate here, so
their historical semantics — truthy sets, defaults, invalid-value
fallbacks — are defined exactly once and covered by one test suite.

``current()`` re-reads the environment on every call unless an explicit
:class:`Settings` has been installed with :func:`configure` (or scoped
with :func:`overridden`): the parse *logic* lives at a single point, but
tests that monkeypatch ``os.environ`` keep working unchanged.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, Mapping, Optional

logger = logging.getLogger(__name__)

#: Values accepted as "on" for opt-in boolean knobs (match the historic
#: ``sanitize``/``obs`` parsers).
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Values accepted as "off" for default-on boolean knobs (matches the
#: historic ``WIRA_DISK_CACHE`` parser).
_FALSY = frozenset({"0", "false", "no", "off"})

#: Every environment variable the repro package reads.  Anything not in
#: this table is not a supported knob.
KNOWN_KNOBS = (
    "WIRA_JOBS",
    "WIRA_CACHE_DIR",
    "WIRA_DISK_CACHE",
    "WIRA_SANITIZE",
    "WIRA_TRACE",
    "WIRA_TRACE_DIR",
)


def default_cache_dir() -> Path:
    """Where replay results persist when ``WIRA_CACHE_DIR`` is unset."""
    return Path(os.path.expanduser("~")) / ".cache" / "wira-repro"


@dataclass(frozen=True)
class Settings:
    """Parsed runtime configuration, one field per ``WIRA_*`` knob."""

    #: ``WIRA_JOBS`` — default worker-process count for sharded replays,
    #: robustness matrices and fleet campaigns (1 = serial reference).
    jobs: int = 1
    #: ``WIRA_CACHE_DIR`` — directory holding persisted replay results.
    cache_dir: Path = field(default_factory=default_cache_dir)
    #: ``WIRA_DISK_CACHE`` — persistent result cache on/off (default on).
    disk_cache: bool = True
    #: ``WIRA_SANITIZE`` — install the runtime transport sanitizer at
    #: import time (default off).
    sanitize: bool = False
    #: ``WIRA_TRACE`` — install the structured trace bus at import time
    #: (default off).
    trace: bool = False
    #: ``WIRA_TRACE_DIR`` — trace output directory (memory-only when
    #: ``None``).
    trace_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            object.__setattr__(self, "jobs", 1)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "Settings":
        """Parse a ``Settings`` from an environment mapping.

        ``environ`` defaults to ``os.environ``; passing a plain dict
        makes the parser trivially testable and keeps this classmethod
        the *only* code that interprets the knob strings.
        """
        env = os.environ if environ is None else environ
        return cls(
            jobs=_parse_jobs(env.get("WIRA_JOBS", "")),
            cache_dir=_parse_path(env.get("WIRA_CACHE_DIR", "")) or default_cache_dir(),
            disk_cache=_parse_default_on(env.get("WIRA_DISK_CACHE", "1")),
            sanitize=_parse_opt_in(env.get("WIRA_SANITIZE", "")),
            trace=_parse_opt_in(env.get("WIRA_TRACE", "")),
            trace_dir=_parse_path(env.get("WIRA_TRACE_DIR", "")),
        )

    def with_overrides(self, **changes: object) -> "Settings":
        """A copy with the given fields replaced (validated names)."""
        valid = {f.name for f in fields(self)}
        unknown = set(changes) - valid
        if unknown:
            raise TypeError(f"unknown Settings field(s): {sorted(unknown)}")
        return replace(self, **changes)  # type: ignore[arg-type]


def _parse_opt_in(raw: str) -> bool:
    """Historic opt-in parse: only an explicit truthy value enables."""
    return raw.strip().lower() in _TRUTHY


def _parse_default_on(raw: str) -> bool:
    """Historic default-on parse: only an explicit falsy value disables."""
    return raw.strip().lower() not in _FALSY


def _parse_jobs(raw: str) -> int:
    """Historic ``WIRA_JOBS`` parse: int, else warn and fall back to 1."""
    text = raw.strip()
    if not text:
        return 1
    try:
        return max(1, int(text))
    except ValueError:
        logger.warning("ignoring non-integer WIRA_JOBS=%r", text)
        return 1


def _parse_path(raw: str) -> Optional[Path]:
    text = raw.strip()
    return Path(text) if text else None


# ---------------------------------------------------------------------------
# Process-wide access.  ``configure`` pins an explicit Settings (CLIs do
# this once at startup after applying their flags); without a pin,
# ``current()`` reflects the live environment.

_CONFIGURED: Optional[Settings] = None


def current() -> Settings:
    """The active settings: the configured pin, else a fresh env parse."""
    if _CONFIGURED is not None:
        return _CONFIGURED
    return Settings.from_env()


def configure(settings: Optional[Settings]) -> Optional[Settings]:
    """Pin (or with ``None`` unpin) the process-wide settings."""
    global _CONFIGURED
    previous = _CONFIGURED
    _CONFIGURED = settings
    return previous


def configured() -> bool:
    """True when an explicit pin is installed."""
    return _CONFIGURED is not None


@contextmanager
def overridden(**changes: object) -> Iterator[Settings]:
    """Scoped settings override for tests and programmatic callers."""
    pinned = current().with_overrides(**changes)
    previous = configure(pinned)
    try:
        yield pinned
    finally:
        configure(previous)

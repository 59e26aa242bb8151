"""Process-wide runtime configuration (the ``WIRA_*`` knobs).

See :mod:`repro.runtime.settings` — the single point where environment
variables become values.  Typical use::

    from repro.runtime import settings

    jobs = settings.current().jobs

    with settings.overridden(jobs=4, trace=True):
        ...
"""

from repro.runtime.settings import (
    KNOWN_KNOBS,
    Settings,
    configure,
    current,
    default_cache_dir,
    overridden,
)

__all__ = [
    "KNOWN_KNOBS",
    "Settings",
    "configure",
    "current",
    "default_cache_dir",
    "overridden",
]

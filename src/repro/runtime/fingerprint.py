"""Content hash of the ``repro`` sources, for cache and checkpoint keys."""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

_SOURCE_FINGERPRINT: Optional[str] = None


def source_fingerprint() -> str:
    """Content hash of every ``repro`` source file, memoised per process.

    Folding this into a cache or checkpoint key means any code change —
    not just a config change — invalidates persisted results, so a stale
    replay can never masquerade as a fresh one.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT

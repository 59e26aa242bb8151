"""The module → layer table the ledger folds profiler self-time through.

Layers are this repository's modules.  ``quic`` and ``simnet`` are split
file by file because their halves are optimised separately (codec versus
control, scheduler versus link); every other package is one layer.  A
file under ``quic/`` or ``simnet/`` that is not listed here has no
layer, and ``bench/tests`` fails on it instead of letting its time land
in an "other" bucket nobody reads.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import Dict, Optional, Tuple

#: Ledger order: the per-packet path first, then what wraps it.
LAYERS: Tuple[str, ...] = (
    "simnet.sched",
    "simnet.link",
    "quic.codec",
    "quic.conn",
    "quic.recovery",
    "quic.cc",
    "cdn",
    "core",
    "media",
    "workload",
    "metrics",
    "fleet",
    "experiments",
    "serve",
    "faults",
    "runtime",
    "socketio",
    "bench",
)

#: Blocked in ``select``: reported beside the ledger, never inside a layer.
IDLE = "host.idle"

#: Files of the two split packages, relative to ``src/repro``.
_FILES: Dict[str, str] = {
    "simnet/__init__.py": "simnet.sched",
    "simnet/engine.py": "simnet.sched",
    "simnet/batch.py": "simnet.sched",
    "simnet/calqueue.py": "simnet.sched",
    "simnet/link.py": "simnet.link",
    "simnet/path.py": "simnet.link",
    "simnet/schedule.py": "simnet.link",
    "simnet/trace.py": "simnet.link",
    "quic/__init__.py": "quic.conn",
    "quic/connection.py": "quic.conn",
    "quic/stream.py": "quic.conn",
    "quic/config.py": "quic.conn",
    "quic/varint.py": "quic.codec",
    "quic/frames.py": "quic.codec",
    "quic/packet.py": "quic.codec",
    "quic/handshake.py": "quic.codec",
    "quic/loss_recovery.py": "quic.recovery",
    "quic/ack_manager.py": "quic.recovery",
    "quic/rtt.py": "quic.recovery",
    "quic/sent_packet.py": "quic.recovery",
    "quic/pacer.py": "quic.cc",
    "__init__.py": "runtime",
}

#: Whole directories, relative to ``src/repro``.
_DIRS: Dict[str, str] = {
    "quic/cc": "quic.cc",
    "cdn": "cdn",
    "core": "core",
    "media": "media",
    "workload": "workload",
    "metrics": "metrics",
    "fleet": "fleet",
    "experiments": "experiments",
    "serve": "serve",
    "faults": "faults",
    "runtime": "runtime",
    "obs": "runtime",
    "sanitize": "runtime",
}

#: Standard-library modules whose time, when no ``repro`` frame is above
#: it, is socket I/O rather than harness overhead.
SOCKET_MODULES = ("asyncio", "selectors", "socket")

#: The C functions a selector event loop blocks in.
IDLE_FUNCTIONS = ("select.epoll", "select.poll", "select.select", "select.kqueue")


def layer_of_module(relative: str) -> Optional[str]:
    """Layer of a file given its path relative to ``src/repro``."""
    path = PurePosixPath(relative)
    layer = _FILES.get(str(path))
    if layer is not None:
        return layer
    for parent in path.parents:
        layer = _DIRS.get(str(parent))
        if layer is not None:
            return layer
    return None

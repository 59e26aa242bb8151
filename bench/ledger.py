"""Fold a ``cProfile`` run into a per-layer ledger that sums to the whole.

Every profiled function's *self* time goes to exactly one layer:

* a function defined under ``src/repro`` goes to its module's layer
  (:mod:`bench.layers`); one defined under ``bench/`` goes to ``bench``;
* a C function or standard-library function has no layer of its own, so
  its self time is charged to its callers — edge by edge for the direct
  caller (cProfile records self time per caller), and in proportion to
  cumulative time further up — until a frame with a layer is reached.
  ``random.seed`` under ``media`` is media time; ``heappush`` under the
  scheduler is scheduler time;
* ``asyncio``/``selectors``/``socket`` time that reaches no ``repro``
  frame on the way up is ``socketio``; the selector's blocking wait is
  ``host.idle`` and is reported beside the layers, never inside one.

Nothing is dropped and nothing is counted twice, so layers + idle equal
the profiler's total.  cProfile adds cost to every Python call and none
to time spent inside C, which inflates call-heavy layers; the ledger
locates candidates, and a gain is only ever claimed on the end-to-end
metrics of an untraced run.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, Optional, Set, Tuple

from bench import ROOT
from bench.layers import IDLE, IDLE_FUNCTIONS, LAYERS, SOCKET_MODULES, layer_of_module

FunctionKey = Tuple[str, int, str]

#: Where a chain of callers ends without meeting a layer (the profiler's
#: own entry point); folded into ``bench``, or ``socketio`` for socket code.
_TOP = "<top>"

_REPRO = str(ROOT / "src" / "repro") + "/"
_BENCH = str(ROOT / "bench") + "/"


class UnmappedModule(LookupError):
    """A profiled ``repro`` module has no entry in the layer table."""


def _own_layer(key: FunctionKey) -> Optional[str]:
    """The layer a function belongs to by where it is defined."""
    filename = key[0].replace("\\", "/")
    if filename.startswith(_REPRO):
        layer = layer_of_module(filename[len(_REPRO) :])
        if layer is None:
            raise UnmappedModule(f"{filename} is not in bench/layers.py")
        return layer
    if filename.startswith(_BENCH):
        return "bench"
    return None


def _is_idle(key: FunctionKey) -> bool:
    return key[0] == "~" and any(name in key[2] for name in IDLE_FUNCTIONS)


def _is_socket_code(key: FunctionKey) -> bool:
    filename, _, function = key
    if filename == "~":
        return "socket" in function or "select" in function
    normalized = filename.replace("\\", "/")
    return any(
        f"/{module}/" in normalized or normalized.endswith(f"/{module}.py")
        for module in SOCKET_MODULES
    )


class Ledger:
    """Self seconds and call counts per layer for one profiled region."""

    def __init__(self, profile: cProfile.Profile) -> None:
        self._stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
        self._own: Dict[FunctionKey, Optional[str]] = {
            key: _own_layer(key) for key in self._stats
        }
        self._above: Dict[FunctionKey, Dict[str, float]] = {}
        self.seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.seconds[IDLE] = 0.0
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.seed_calls = 0
        self.total_seconds = 0.0
        self._fold()

    def _fold(self) -> None:
        for key, (_, n_calls, self_time, _, callers) in self._stats.items():
            self.total_seconds += self_time
            layer = self._own[key]
            if layer is not None:
                self.seconds[layer] += self_time
                self.calls[layer] += n_calls
                continue
            if key[2] == "seed" and key[0].endswith("random.py"):
                self.seed_calls += n_calls
            if _is_idle(key):
                self.seconds[IDLE] += self_time
                continue
            fallback = "socketio" if _is_socket_code(key) else "bench"
            if not callers:
                self.seconds[fallback] += self_time
                continue
            # cProfile keeps self time per (caller → this function) edge.
            for caller, (_, _, edge_self_time, _) in callers.items():
                for layer, share in self._layers_above(caller, set()).items():
                    if layer == _TOP or (layer == "bench" and fallback == "socketio"):
                        layer = fallback
                    self.seconds[layer] += edge_self_time * share

    def _layers_above(self, key: FunctionKey, visiting: Set[FunctionKey]) -> Dict[str, float]:
        """Shares (summing to 1) of the layers a function runs on behalf of."""
        own = self._own.get(key)
        if own is not None:
            return {own: 1.0}
        known = self._above.get(key)
        if known is not None:
            return known
        callers = self._stats.get(key, (0, 0, 0.0, 0.0, {}))[4]
        visiting = visiting | {key}
        edges = {c: e[3] for c, e in callers.items() if c not in visiting}
        weight = sum(edges.values())
        shares: Dict[str, float] = {}
        if weight <= 0.0:
            shares[_TOP] = 1.0
        else:
            for caller, cumulative in edges.items():
                for layer, share in self._layers_above(caller, visiting).items():
                    shares[layer] = shares.get(layer, 0.0) + share * cumulative / weight
        if len(visiting) == 1:
            # Only a result computed with no cycle cut above it is final.
            self._above[key] = shares
        return shares

    def per_session_ms(self, sessions: int) -> Dict[str, float]:
        """``<layer>.self_ms`` and ``host.idle_ms`` per session."""
        scale = 1e3 / max(1, sessions)
        ledger = {f"{layer}.self_ms": self.seconds[layer] * scale for layer in LAYERS}
        ledger[f"{IDLE}_ms"] = self.seconds[IDLE] * scale
        return ledger

"""Planted defects: small edits to real files under ``src/``.

A plant introduces one defect into the real tree, so that a gate can be
shown to catch it.  The edits are written into a copy of the tree with
:func:`planted_sources` (every gate then runs there), or swapped into
the running process with :func:`apply_in_process` (one tier-1 test then
shows that the check meant to catch it fails).

Two families share this harness.  ``tests/tools/test_lint_plants.py``
plants each lint rule's defect.  :data:`PLANTS` below are runtime
defects in the transport and the replay: the first 18 are rows 1-18 of
CONTRIBUTING.md's runtime plant table (one per raise site of the
transport sanitizer that once guarded them), and the last is the
baseline mutant M3 of ROADMAP.md, BBR's drain at unit gain.
``tests/test_plants.py`` replays every one on this tree.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

ENGINE = "src/repro/simnet/engine.py"
PACER = "src/repro/quic/pacer.py"
CONNECTION = "src/repro/quic/connection.py"
CC_BASE = "src/repro/quic/cc/base.py"
BBR = "src/repro/quic/cc/bbr.py"
ACK_MANAGER = "src/repro/quic/ack_manager.py"
PACKET = "src/repro/quic/packet.py"
FRAMES = "src/repro/quic/frames.py"
SERVER = "src/repro/cdn/server.py"
COMMON = "src/repro/experiments/common.py"

Edit = Tuple[str, str, str]


@dataclass(frozen=True)
class Plant:
    """``edits`` are ``(path, old, new)``; ``old`` occurs exactly once.

    ``context`` names unedited files a check of the plant needs beside
    the edited ones (a registry the plant's name is checked against).
    """

    name: str
    edits: Tuple[Edit, ...]
    context: Tuple[str, ...] = ()


PLANTS = (
    Plant(
        "clock-run-until-skips-queued-events",
        (
            (
                ENGINE,
                "if self._now < deadline and not (heap and heap[0][0] <= deadline):",
                "if self._now < deadline:",
            ),
        ),
    ),
    Plant(
        "pacer-rate-rounded-to-whole-mbps",
        (
            (
                PACER,
                "        self._refill(now)\n        self._rate_bps = rate_bps\n",
                "        self._refill(now)\n        self._rate_bps = float(int(rate_bps / 1e6)) * 1e6\n",
            ),
        ),
    ),
    Plant(
        "pacer-refill-without-burst-cap",
        (
            (
                PACER,
                "            self._tokens = tokens if tokens < burst else burst\n",
                "            self._tokens = tokens\n",
            ),
        ),
    ),
    Plant(
        "pump-ignores-pacing-waits-under-a-second",
        (
            (
                CONNECTION,
                "                    wait = pacer.time_until_send(MSS, now)\n"
                "                    if wait > 1e-12:\n",
                "                    wait = pacer.time_until_send(MSS, now)\n"
                "                    if wait > 1.0:\n",
            ),
        ),
    ),
    Plant(
        "pure-ack-reuses-its-packet-number",
        (
            (
                CONNECTION,
                "        self._next_packet_number = packet_number + 1\n",
                "        self._next_packet_number = packet_number + (1 if in_flight else 0)\n",
            ),
        ),
    ),
    Plant(
        "initial-window-set-in-packets",
        (
            (
                CC_BASE,
                "        self._cwnd = window_bytes\n",
                "        self._cwnd = window_bytes // MSS\n",
            ),
        ),
    ),
    Plant(
        "bbr-window-reads-min-rtt-in-ms",
        (
            (
                BBR,
                "            cwnd = int(self.cwnd_gain * bw * min_rtt / 8.0)\n",
                "            cwnd = int(self.cwnd_gain * bw * min_rtt * 1000.0 / 8.0)\n",
            ),
        ),
    ),
    Plant(
        "ack-shifted-up-by-one",
        (
            (
                ACK_MANAGER,
                "            largest_acked=self._largest,\n",
                "            largest_acked=self._largest + 1,\n",
            ),
            (
                ACK_MANAGER,
                "            ranges=ranges,\n",
                "            ranges=tuple((low + 1, high + 1) for low, high in ranges),\n",
            ),
        ),
    ),
    Plant(
        "ack-ranges-reach-one-below-each-run",
        (
            (
                ACK_MANAGER,
                "        return tuple(zip(reversed(self._lows), reversed(self._highs)))\n",
                "        return tuple(\n"
                "            (low - 1, high) for low, high in zip(reversed(self._lows), reversed(self._highs))\n"
                "        )\n",
            ),
        ),
    ),
    Plant(
        "gap-fill-keeps-the-upper-run",
        (
            (
                ACK_MANAGER,
                "            highs[before] = highs[after]\n            del lows[after], highs[after]\n",
                "            highs[before] = highs[after]\n",
            ),
        ),
    ),
    Plant(
        "ack-largest-from-the-lowest-run",
        (
            (
                ACK_MANAGER,
                "            largest_acked=self._largest,\n",
                "            largest_acked=self._highs[0],\n",
            ),
        ),
    ),
    Plant(
        "short-header-without-fixed-bit",
        (
            (
                PACKET,
                "            _FIXED_BIT\n            if packet_type == PacketType.ONE_RTT\n",
                "            0\n            if packet_type == PacketType.ONE_RTT\n",
            ),
        ),
    ),
    Plant(
        "stream-frame-wire-size-off-by-one",
        (
            (
                FRAMES,
                "            1\n            + varint_size(self.stream_id)\n",
                "            2\n            + varint_size(self.stream_id)\n",
            ),
        ),
    ),
    Plant(
        "stream-frame-encodes-without-fin",
        (
            (
                FRAMES,
                "                _STREAM_FIN_BYTES if self.fin else _STREAM_BYTES,\n",
                "                _STREAM_BYTES,\n",
            ),
        ),
    ),
    Plant(
        "bbr-startup-exits-straight-to-probe-bw",
        (
            (
                BBR,
                "            self._set_mode(BbrMode.DRAIN, now)\n"
                "            self.pacing_gain = DRAIN_GAIN\n"
                "            self.cwnd_gain = HIGH_GAIN\n",
                "            self._enter_probe_bw(now)\n",
            ),
        ),
    ),
    Plant(
        "table-one-applied-before-every-batch",
        (
            (
                SERVER,
                "        if state.initial_params is not None and not state.initial_params.provisional:\n"
                "            return\n",
                "",
            ),
        ),
    ),
    Plant(
        "match-ignores-the-pacing-answer",
        (
            (
                COMMON,
                "    return (params.cwnd_bytes, params.pacing_bps, params.provisional)\n",
                "    return (params.cwnd_bytes, params.provisional)\n",
            ),
        ),
    ),
    Plant(
        "recorded-cookie-state-read-before-the-run",
        (
            (
                COMMON,
                "        result = self.session(spec, asked).run()\n"
                "        sessions.setdefault(key, []).append(\n"
                "            SharedSession(start, tuple(asked.asked), result, self.cookie_state(before))\n",
                "        after = self.cookie_state(before)\n"
                "        result = self.session(spec, asked).run()\n"
                "        sessions.setdefault(key, []).append(\n"
                "            SharedSession(start, tuple(asked.asked), result, after)\n",
            ),
        ),
    ),
    Plant(
        "bbr-drain-at-unit-gain",
        ((BBR, "DRAIN_GAIN = 1.0 / HIGH_GAIN\n", "DRAIN_GAIN = 1.0\n"),),
    ),
)


def planted_sources(plant: Plant, root: Path = REPO_ROOT) -> Dict[str, str]:
    """Path -> text of every file the plant edits, edits applied."""
    texts: Dict[str, str] = {}
    for path, old, new in plant.edits:
        text = texts.get(path)
        if text is None:
            text = (root / path).read_text(encoding="utf-8")
        assert text.count(old) == 1, f"{plant.name}: anchor not unique in {path}: {old!r}"
        texts[path] = text.replace(old, new)
    return texts


def _defs(tree: ast.Module) -> Iterator[Tuple[Tuple[str, str], ast.stmt]]:
    """``((class or "", name), node)`` for each module-level function,
    method and single-name assignment."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield ("", node.name), node
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                yield ("", target.id), node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield (node.name, item.name), item


def apply_in_process(monkeypatch, plant: Plant) -> None:
    """Swap in the planted version of every function and module
    constant the plant's edits change."""
    for path, text in planted_sources(plant).items():
        module = importlib.import_module(path[len("src/"):-len(".py")].replace("/", "."))
        original = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))
        unchanged = {key: ast.dump(node) for key, node in _defs(original)}
        for (owner, name), node in _defs(ast.parse(text)):
            if unchanged.get((owner, name)) == ast.dump(node):
                continue
            namespace = dict(vars(module))
            exec(compile(ast.Module([node], []), path, "exec"), namespace)
            monkeypatch.setattr(getattr(module, owner) if owner else module, name, namespace[name])

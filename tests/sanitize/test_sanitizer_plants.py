"""Each sanitizer failure's defect, planted in the real tree.

A plant is a small edit to real files under ``src/`` that introduces a
defect one ``SanitizerError`` raise site existed for: one plant per
raise site of the nine-invariant sanitizer (18 sites).
CONTRIBUTING.md's sanitizer plant table records, per plant, which gates
fail when its edits are written into a copy of the tree
(``planted_sources(plant, root)``).  A check stayed only where nothing
but the sanitizer catches its plant; that plant is applied here in
process, and the named ``SanitizerError`` must come out of a real
session, so the hook is proven wired and not only callable.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro import sanitize
from repro.sanitize import SanitizerError
from tests.sanitize.test_sanitizer import PINNED_BANDWIDTH, PINNED_SCHEME, run_session

REPO_ROOT = Path(__file__).resolve().parents[2]

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

    ``invariant`` and ``site`` name the raise the plant is for: the
    invariant and the check's wording of that failure.
    """

    name: str
    invariant: str
    site: str
    edits: Tuple[Edit, ...]


PLANTS = (
    Plant(
        "clock-run-until-skips-queued-events",
        "clock_monotonic",
        "event would rewind the clock",
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
        "pacer_tokens",
        "pacing rate is not positive",
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
        "pacer_tokens",
        "token bucket overfilled",
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
        "pacer_tokens",
        "token bucket below the bounded-debt floor",
        ((CONNECTION, "                    if wait > 1e-12:\n", "                    if wait > 1.0:\n"),),
    ),
    Plant(
        "pure-ack-reuses-its-packet-number",
        "packet_number_monotonic",
        "packet number not strictly increasing",
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
        "cwnd_bounds",
        "cwnd below 1 MSS",
        (
            (
                CC_BASE,
                "        self._cwnd = window_bytes\n",
                "        self._cwnd = window_bytes // self.mss\n",
            ),
        ),
    ),
    Plant(
        "bbr-window-reads-min-rtt-in-ms",
        "cwnd_bounds",
        "cwnd above the byte ceiling",
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
        "ack_range",
        "ACK beyond the largest packet sent",
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
        "ack_range",
        "malformed ACK range",
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
        "ack_range",
        "ACK ranges overlap or are unordered",
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
        "ack_range",
        "largest_acked disagrees with the leading range",
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
        "datagram_parse",
        "bytes do not decode",
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
        "datagram_parse",
        "parse sizes its bytes wrongly",
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
        "datagram_parse",
        "parse disagrees with its bytes",
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
        "bbr_transition",
        "illegal BBR transition",
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
        "init_override_once",
        "initial override applied more than twice",
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
        "shared_session",
        "shared outcome differs from simulating",
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
        "shared_session",
        "shared session leaves other cookie state",
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


def _defs(tree: ast.Module) -> Iterator[Tuple[Tuple[str, str], ast.FunctionDef]]:
    """``((class or "", name), node)`` for each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield ("", node.name), node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield (node.name, item.name), item


def apply_in_process(monkeypatch, plant: Plant) -> None:
    """Swap in the planted version of every function the plant's edits change."""
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


KEPT_PLANTS = {"bbr_transition": "bbr-startup-exits-straight-to-probe-bw"}


@pytest.mark.parametrize("plant", PLANTS, ids=[p.name for p in PLANTS])
def test_plant_applies_to_the_tree(plant):
    """Every row of the table can still be replayed on this tree."""
    for path, text in planted_sources(plant).items():
        compile(text, path, "exec")


def test_every_kept_check_has_its_plant():
    assert set(KEPT_PLANTS) == set(sanitize.INVARIANTS)
    by_name = {plant.name: plant for plant in PLANTS}
    for invariant, name in KEPT_PLANTS.items():
        assert by_name[name].invariant == invariant


@pytest.mark.parametrize("invariant", sorted(KEPT_PLANTS))
def test_kept_plant_raises_out_of_a_real_session(monkeypatch, invariant):
    plant = next(p for p in PLANTS if p.name == KEPT_PLANTS[invariant])
    apply_in_process(monkeypatch, plant)
    with sanitize.sanitized(), pytest.raises(SanitizerError) as excinfo:
        run_session(PINNED_SCHEME, PINNED_BANDWIDTH)
    assert excinfo.value.invariant == invariant
